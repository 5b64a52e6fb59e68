package main

import (
	"fmt"
	"strconv"

	"repro/internal/datagen"
	"repro/internal/table"
)

// Every input the program sees — tables, statement text, question ids — is
// generated here from the run's seed and nothing else.

// rowsPerDay spreads the served table over an integer day column.
const rowsPerDay = 16

// reviewsTable builds the table the three served workloads query: datagen's
// Movies rows plus an integer day column (rowsPerDay rows a day), to be
// registered under the ad-hoc name "reviews" — not "Movies" — so the
// oracle's field-position accuracy model is off and relations are
// byte-comparable across plans, caches and backends.
//
// Rows are dealt from a larger generated pool, in pool order, so that exactly
// every fourth row is a top critic's (datagen draws that flag with p = ¼):
// the topcritic = 'True' pushdown then keeps the same number of rows under
// every seed, and what varies with the seed is the rows' content, not how
// much work a statement is.
func reviewsTable(seed int64, rows int) *table.Table {
	for pool := 2 * rows; ; pool *= 2 {
		src := datagen.Movies(datagen.Options{Scale: (float64(pool) + 0.5) / 15000, Seed: seed}).Table
		tc, _ := src.ColIndex("topcritic")
		var top, rest []int
		for i := 0; i < src.NumRows(); i++ {
			if src.Cell(i, tc) == "True" {
				top = append(top, i)
			} else {
				rest = append(rest, i)
			}
		}
		if len(top) < (rows+3)/4 || len(rest) < rows {
			continue
		}
		t := table.New(append(append([]string(nil), src.Columns()...), "day")...)
		for i := 0; i < rows; i++ {
			from := &rest
			if i%4 == 0 {
				from = &top
			}
			t.MustAppendRow(append(append([]string(nil), src.Row((*from)[0])...), strconv.Itoa(i/rowsPerDay))...)
			*from = (*from)[1:]
		}
		if err := t.SetFDs(src.FDs()); err != nil {
			panic(err) // unreachable: the FD columns were copied over
		}
		return t
	}
}

// stmt is one generated statement and what a correct answer to it must
// look like.
type stmt struct {
	// ID is the op index: unique within a run, it is the statement's
	// identity in spans, samples and the correctness sample.
	ID     int64
	SQL    string
	Client string
	Class  string
	// Columns is the expected output column list. Rows is the exact
	// expected row count when it can be known without a model (-1
	// otherwise, in which case MaxRows bounds it).
	Columns []string
	Rows    int
	MaxRows int
}

// tableFacts are the model-free facts the generator needs to predict row
// counts.
type tableFacts struct {
	topCritic       int // rows with topcritic = 'True'
	topCriticGenres int // distinct genres among them
}

func factsOf(t *table.Table) tableFacts {
	tc, _ := t.ColIndex("topcritic")
	g, _ := t.ColIndex("genres")
	genres := map[string]bool{}
	var f tableFacts
	for i := 0; i < t.NumRows(); i++ {
		if t.Cell(i, tc) == "True" {
			f.topCritic++
			genres[t.Cell(i, g)] = true
		}
	}
	f.topCriticGenres = len(genres)
	return f
}

// adhocStmt is statement i of the ad-hoc stream both adhoc-cold and
// fleet-routed serve: three templates in rotation, each carrying a question
// id unique to (seed, i) inside its prompt — so no two statements share a
// plan, a stage fingerprint or a result-cache entry — and the
// topcritic = 'True' pushdown that keeps each to a quarter of the table.
func adhocStmt(seed int64, i int64, f tableFacts) stmt {
	qid := fmt.Sprintf("Q%d-%06d", seed, i)
	s := stmt{ID: i, Client: "c" + strconv.FormatInt(i%2, 10), Class: "interactive", Rows: -1, MaxRows: f.topCritic}
	switch i % 3 {
	case 0:
		s.SQL = "SELECT movietitle, LLM('" + qid + ": Summarize the good qualities in this movie that led to a favorable rating.', movieinfo, reviewcontent) AS summary FROM reviews WHERE topcritic = 'True'"
		s.Columns = []string{"movietitle", "summary"}
		s.Rows = f.topCritic
	case 1:
		s.SQL = "SELECT movietitle, reviewtype FROM reviews WHERE topcritic = 'True' AND LLM('" + qid + ": Would the movie be suitable for kids? Answer Yes or No.', movieinfo, genres) = 'Yes'"
		s.Columns = []string{"movietitle", "reviewtype"}
	default:
		s.SQL = "SELECT genres, COUNT(*) AS n, AVG(LLM('" + qid + ": Assign a sentiment score for the review out of 5.', reviewcontent)) AS score FROM reviews WHERE topcritic = 'True' GROUP BY genres ORDER BY genres"
		s.Columns = []string{"genres", "n", "score"}
		s.Rows = f.topCriticGenres
	}
	return s
}

// The dashboard's three shared LLM prompts. Each is always used the same
// way (aggregate / filter / projection) over the same fields, so every
// tenant's use of it has one stage fingerprint and shares result-cache
// entries, inflight computations and batch windows with the others.
const (
	dashScore  = "LLM('Assign a sentiment score for the review out of 5.', reviewcontent)"
	dashActing = "LLM('Does the review praise the acting? Answer Yes or No.', reviewcontent) = 'Yes'"
	dashGist   = "LLM('Summarize the review in five words.', reviewcontent)"
)

// dashWindowDays is the sliding window's width: 25 days of rowsPerDay rows
// is ~400 rows, of which one day (4 %) is new each tick.
const dashWindowDays = 25

// dashTenants is the number of tenants (and statements) per tick.
const dashTenants = 8

// dashStmts are tick k's eight statements — tenants t0…t7, the first four
// interactive and the last four batch-class — sharing the three prompts
// above over different plain filters and the window day >= t AND day <
// t+25. The window starts on a seed-chosen day, slides one day a tick and
// wraps before it runs off the table.
func dashStmts(seed, tick int64, days int) []stmt {
	span := uint64(days - dashWindowDays)
	t := int64((splitmix(uint64(seed))%span + uint64(tick)) % span)
	win := fmt.Sprintf("day >= %d AND day < %d", t, t+dashWindowDays)
	winRows := dashWindowDays * rowsPerDay
	mk := func(tenant int, sql string, cols ...string) stmt {
		class := "interactive"
		if tenant >= dashTenants/2 {
			class = "batch"
		}
		return stmt{ID: tick*dashTenants + int64(tenant), SQL: sql, Client: "t" + strconv.Itoa(tenant), Class: class,
			Columns: cols, Rows: -1, MaxRows: winRows}
	}
	return []stmt{
		mk(0, "SELECT reviewtype, COUNT(*) AS n, AVG("+dashScore+") AS score FROM reviews WHERE "+win+" GROUP BY reviewtype ORDER BY reviewtype", "reviewtype", "n", "score"),
		mk(1, "SELECT genres, AVG("+dashScore+") AS score FROM reviews WHERE "+win+" AND topcritic = 'True' GROUP BY genres ORDER BY genres", "genres", "score"),
		mk(2, "SELECT movietitle FROM reviews WHERE "+win+" AND "+dashActing, "movietitle"),
		mk(3, "SELECT movietitle, reviewtype FROM reviews WHERE "+win+" AND reviewtype = 'Fresh' AND "+dashActing, "movietitle", "reviewtype"),
		mk(4, "SELECT movietitle, "+dashGist+" AS gist FROM reviews WHERE "+win+" AND topcritic = 'True'", "movietitle", "gist"),
		mk(5, "SELECT movietitle, genres FROM reviews WHERE "+win+" AND reviewtype = 'Rotten' AND "+dashActing, "movietitle", "genres"),
		mk(6, "SELECT productioncompany, AVG("+dashScore+") AS score FROM reviews WHERE "+win+" AND reviewtype = 'Fresh' GROUP BY productioncompany ORDER BY productioncompany", "productioncompany", "score"),
		mk(7, "SELECT reviewtype, COUNT(*) AS n FROM reviews WHERE "+win+" AND "+dashActing+" GROUP BY reviewtype ORDER BY reviewtype", "reviewtype", "n"),
	}
}
