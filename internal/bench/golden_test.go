package bench

import (
	"bytes"
	"flag"
	"fmt"
	"path/filepath"
	"testing"

	"rmalocks/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestEvaluationGolden pins the paper's whole evaluation at Quick: the
// text `lockbench -figure all -scale quick -csv` followed by `lockbench
// -ablation all -scale quick -csv` prints, under a first line naming the
// address version (sweep.Golden: -update refuses a changed table until
// the version is bumped).
func TestEvaluationGolden(t *testing.T) {
	figs := append(Figures(Quick), Ablations(Quick)...)
	rows, err := Run(figs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i, f := range figs {
		fmt.Fprintf(&buf, "# %s\n%s\n", f.Title, f.Table(rows[i]).CSV())
	}
	want, err := sweep.Golden(filepath.Join("testdata", "evaluation_quick.golden"), buf.Bytes(), *update)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("evaluation drifted from golden (regenerate with -update if intended)\ngot:\n%s", buf.String())
	}
}
