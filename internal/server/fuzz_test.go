package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/sqlfront"
	"repro/internal/table"
)

// FuzzSQLRequest sends arbitrary bytes to /v1/sql on a runtime with one
// three-row table and the sim backend. The handler must never panic, a 2xx
// must carry a JSON body, and every other status must be the /v1 error
// envelope with a known code and a message.
func FuzzSQLRequest(f *testing.F) {
	for _, seed := range []string{
		`{"sql":"SELECT id, LLM('Is this urgent?', request) AS urgent FROM tickets"}`,
		`{"sql":"SELECT id FROM tickets WHERE region = 'emea'","client":"a","class":"batch","deadlineMs":500}`,
		`{"sql":"SELECT region, COUNT(*) FROM tickets GROUP BY region","options":{"naive":true,"policy":"no-cache","trace":true}}`,
		`{"sql":"SELECT id FROM tickets"}` + "\n",
		`{"sql":"SELECT id FROM tickets"} trailing`,
		`{"sql":"SELECT nope FROM tickets"}`,
		`{"sql":"","naive":true}`,
		`{"sql":"SELECT id FROM tickets","class":"nope","deadlineMs":-1}`,
		`{"options":null,"sql":1}`,
		``,
		`[`,
	} {
		f.Add([]byte(seed))
	}
	tbl := table.New("id", "region", "request")
	tbl.MustAppendRow("T-1", "emea", "please fix the crash")
	tbl.MustAppendRow("T-2", "amer", "how do I export data")
	tbl.MustAppendRow("T-3", "emea", "the app will not start")
	db := sqlfront.NewDB()
	db.Register("tickets", tbl)
	rt := runtime.New(db, runtime.Config{Workers: 2})
	f.Cleanup(rt.Close)
	cfg := Config{Runtime: rt}
	known := map[string]bool{
		ErrCodeInvalidRequest: true, ErrCodeMethodNotAllowed: true, ErrCodeExecutionFailed: true,
		ErrCodeQuotaExceeded: true, ErrCodeCanceled: true, ErrCodeUnavailable: true,
		ErrCodeDeadlineExceeded: true, ErrCodeInternal: true,
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		// A statement the fuzzer grows past a second answers 504 like any
		// other deadline, rather than stalling the run.
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		req := httptest.NewRequest(http.MethodPost, "/v1/sql", bytes.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		handleSQL(cfg, rec, req)
		if rec.Code >= 200 && rec.Code < 300 {
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("status %d with a body that is not JSON: %q", rec.Code, rec.Body)
			}
			return
		}
		var env ErrorResponse
		dec := json.NewDecoder(rec.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&env); err != nil {
			t.Fatalf("status %d without the error envelope (%v): %q", rec.Code, err, rec.Body)
		}
		if !known[env.Error.Code] || env.Error.Message == "" {
			t.Fatalf("status %d: envelope %+v has an unknown code or no message", rec.Code, env.Error)
		}
	})
}
