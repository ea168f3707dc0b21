package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestEvaluationGolden pins the paper's whole evaluation at Quick: the
// text `lockbench -figure all -scale quick -csv` followed by `lockbench
// -ablation all -scale quick -csv` prints.
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
	golden := filepath.Join("testdata", "evaluation_quick.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("evaluation drifted from golden (regenerate with -update if intended)\ngot:\n%s", buf.String())
	}
}
