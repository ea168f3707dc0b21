//go:build unix

package sweep_test

import (
	"bytes"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"rmalocks/internal/sweep"
)

// TestSaveWritesSpecialFilesInPlace: a target that is not a regular file
// (`workbench -out /dev/stdout`, here a FIFO) receives the run's bytes and
// survives the save — a rename over it would replace the node with a
// regular file — and a regular save leaves no temporary file behind.
func TestSaveWritesSpecialFilesInPlace(t *testing.T) {
	dir := t.TempDir()
	rf := sweep.RunFile{Label: "special", Cells: []sweep.CellResult{}}
	want, err := sweep.Encode(rf)
	if err != nil {
		t.Fatal(err)
	}

	fifo := filepath.Join(dir, "run.fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("no FIFO: %v", err)
	}
	got := make(chan []byte, 1)
	go func() {
		b, _ := os.ReadFile(fifo)
		got <- b
	}()
	if err := sweep.Save(fifo, rf); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Lstat(fifo)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode()&os.ModeNamedPipe == 0 {
		t.Fatalf("the save replaced the FIFO: mode %v", fi.Mode())
	}
	select {
	case b := <-got:
		if !bytes.Equal(b, want) {
			t.Errorf("FIFO reader got %q, want %q", b, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("nothing was written to the FIFO")
	}

	regular := filepath.Join(dir, "run.json")
	for i := 0; i < 2; i++ { // create, then replace
		if err := sweep.Save(regular, rf); err != nil {
			t.Fatal(err)
		}
	}
	if b, err := os.ReadFile(regular); err != nil || !bytes.Equal(b, want) {
		t.Errorf("regular save: %q, %v", b, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("directory holds %v, want only the FIFO and the saved run", names)
	}
}
