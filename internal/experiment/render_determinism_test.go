package experiment

import (
	"bytes"
	"strings"
	"testing"
)

// TestRenderPathByteIdentical pins every rendering surface of the
// experiment layer — aligned-text Render, WriteCSV, and the JSON
// document — to be byte-identical between a run on one worker and a run
// on four, for each experiment that runs its cells as scheduled units.
// A map-iteration leak or a reduction that follows completion order
// instead of index order would corrupt committed artifacts
// (EXPERIMENTS.md tables, `experiments -format json` documents)
// nondeterministically. Each run gets a fresh result store, so the
// second run simulates instead of reading the first's units.
func TestRenderPathByteIdentical(t *testing.T) {
	ids := []string{"fig3", "xrelated", "x3c", "xdrowsy", "xvipt", "xrecolor", "xprefetch", "xl2", "xwindow"}
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			renderAll := func(workers int) (text string, csv, doc []byte) {
				opts := tinyPlanOpts()
				opts.Workers = workers
				tables, err := e.Run(opts)
				if err != nil {
					t.Fatal(err)
				}
				var tb strings.Builder
				var cb bytes.Buffer
				res := Result{ID: e.ID, Title: e.Title}
				for _, table := range tables {
					tb.WriteString(table.Render())
					if err := table.WriteCSV(&cb); err != nil {
						t.Fatal(err)
					}
					res.Tables = append(res.Tables, table.JSON())
				}
				var db bytes.Buffer
				if err := NewDocument([]Result{res}).Write(&db); err != nil {
					t.Fatal(err)
				}
				return tb.String(), cb.Bytes(), db.Bytes()
			}
			text1, csv1, doc1 := renderAll(1)
			text4, csv4, doc4 := renderAll(4)
			if text1 != text4 {
				t.Errorf("text render differs between 1 and 4 workers:\n%s\n%s", text1, text4)
			}
			if !bytes.Equal(csv1, csv4) {
				t.Error("CSV output differs between 1 and 4 workers")
			}
			if !bytes.Equal(doc1, doc4) {
				t.Error("JSON document differs between 1 and 4 workers")
			}
		})
	}
}
