package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/sqlfront"
)

// TestRegisterTablesRejects: a repeated table name (across -csv and
// -dataset alike) and a malformed name=path are errors, not silent
// last-write-wins shadowing.
func TestRegisterTablesRejects(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.csv")
	if err := os.WriteFile(path, []byte("a,b\n1,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := datagen.Options{Scale: 0.001, Seed: 1}
	for _, tc := range []struct {
		name           string
		datasets, csvs []string
		wantErr        string
	}{
		{"distinct names", []string{"Movies"}, []string{"t=" + path, "u=" + path}, ""},
		{"csv twice", nil, []string{"t=" + path, "t=" + path}, "registered twice"},
		{"dataset twice", []string{"Movies", "Movies"}, nil, "registered twice"},
		{"csv shadows dataset", []string{"Movies"}, []string{"Movies=" + path}, "registered twice"},
		{"no equals", nil, []string{path}, "malformed -csv"},
		{"empty name", nil, []string{"=" + path}, "malformed -csv"},
		{"empty path", nil, []string{"t="}, "malformed -csv"},
	} {
		db := sqlfront.NewDB()
		err := RegisterTables(db, tc.datasets, tc.csvs, opts)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr == "" && len(db.Tables()) != len(tc.datasets)+len(tc.csvs):
			t.Errorf("%s: registered %v", tc.name, db.Tables())
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}
