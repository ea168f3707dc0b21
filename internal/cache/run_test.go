package cache

import (
	"testing"
	"unsafe"

	"rmalocks/internal/sweep"
)

// TestIndexedInputIsACopy: a cell's Input is a slice of its grid's whole
// address block, so a run that kept it would keep every address of the
// job that stored it. The index holds a copy of its own.
func TestIndexedInputIsACopy(t *testing.T) {
	g := sweep.Grid{Schemes: []string{"RMA-RW"}, Workloads: []string{"empty"}, Profiles: []string{"uniform", "zipf"}, Ps: []int{8}, Iters: 5}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.Run(cells, sweep.Options{Workers: 1, Cache: s}); err != nil {
		t.Fatal(err)
	}
	block := uintptr(unsafe.Pointer(unsafe.StringData(cells[0].Input)))
	end := uintptr(unsafe.Pointer(unsafe.StringData(cells[len(cells)-1].Input))) + uintptr(len(cells[len(cells)-1].Input))
	for _, c := range cells {
		r := s.runs[c.Input]
		if r == nil || r.group == "" {
			t.Fatalf("cell %s is not indexed as a witnessed run", c.Key)
		}
		if p := uintptr(unsafe.Pointer(unsafe.StringData(r.input))); p >= block && p < end {
			t.Errorf("cell %s: the indexed input shares the grid's address block", c.Key)
		}
	}
}
