package sweep

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"rmalocks/internal/fault"
	"rmalocks/internal/obs"
	"rmalocks/internal/workload"
)

// specGrid leaves no field of its last cell's description at the zero
// value, so a perturbation of any of them is a change.
func specGrid(t *testing.T) Grid {
	t.Helper()
	fp, err := fault.Parse("jitter=0.2")
	if err != nil {
		t.Fatal(err)
	}
	return Grid{
		Schemes: []string{workload.SchemeRMARW}, Workloads: []string{"dht"}, Profiles: []string{"zipf"},
		Ps: []int{4}, ProcsPerNode: 2, Iters: 7, Seed: 3, FW: 0.25, Locks: 16, ZipfS: 1.1,
		ThinkNs: 50, ThinkJitterNs: 20, RemotePct: 200,
		Tunables: []TunableAxis{{Key: "TR", Values: []int64{500}}},
		Faults:   []*fault.Profile{fp},
	}
}

// leaves calls fn for every non-struct field of v, embedded structs
// flattened, each made settable whether or not it is exported.
func leaves(v reflect.Value, fn func(name string, f reflect.Value)) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
		if f.Kind() == reflect.Struct {
			leaves(f, fn)
			continue
		}
		fn(v.Type().Field(i).Name, f)
	}
}

// TestAddressCoversSpec perturbs every field of a cell's description in
// turn and requires its content address to change: a field that reaches
// the run (spec reads nothing else) without reaching the address would
// be a stale cache hit. A field of a kind this test cannot perturb
// fails it, so one added later has to be taught to both.
func TestAddressCoversSpec(t *testing.T) {
	specs, _, err := specGrid(t).enumerate()
	if err != nil {
		t.Fatal(err)
	}
	cs := specs[len(specs)-1] // the tuned, faulted cell
	if cs.locks != 4 || !strings.Contains(string(cs.appendInput(nil, nil)), " locks=4 ") {
		t.Fatalf("dht cell at P=4 holds locks=%d in %q, want the clamped 4", cs.locks, cs.appendInput(nil, nil))
	}
	base := string(cs.appendInput(nil, nil))
	// One floatText across every call, as Cells writes a grid's
	// addresses: a float it spelled before must not stick.
	var floats floatText
	leaves(reflect.ValueOf(&cs).Elem(), func(name string, f reflect.Value) {
		if f.IsZero() {
			t.Errorf("specGrid leaves %s at its zero value", name)
		}
		old := reflect.New(f.Type()).Elem()
		old.Set(f)
		switch f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() + 0.5)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Map, reflect.Pointer:
			// The typed twins of Key.Tunables and Key.Faults: the address
			// holds their canonical strings, checked below.
			if name != "tun" && name != "fault" {
				t.Errorf("field %s: a %s the address does not cover", name, f.Kind())
			}
			return
		default:
			t.Errorf("field %s: teach this test to perturb a %s, and appendInput to encode it", name, f.Kind())
			return
		}
		if got := string(cs.appendInput(nil, &floats)); got == base {
			t.Errorf("changing %s leaves the address at %q", name, got)
		}
		f.Set(old)
		if got := string(cs.appendInput(nil, &floats)); got != base {
			t.Errorf("restoring %s gives the address %q, want %q", name, got, base)
		}
	})
	// 0 and -0 are equal floats with two spellings.
	neg := cs
	neg.fw = math.Copysign(0, -1)
	cs.fw = 0
	if a, b := string(cs.appendInput(nil, &floats)), string(neg.appendInput(nil, &floats)); !strings.Contains(a, " fw=0 ") || !strings.Contains(b, " fw=-0 ") {
		t.Errorf("fw 0 and -0 written through one floatText as %q and %q", a, b)
	}
	for _, cs := range specs {
		if cs.tun.Canonical() != cs.Tunables || cs.fault.Canonical() != cs.Faults {
			t.Errorf("cell %s: typed tunables %q and faults %q are not what its key says", cs.Key, cs.tun.Canonical(), cs.fault.Canonical())
		}
	}
}

// TestCellDerivedFromSpec: a cell's key and address are its
// description's, and the attachments — which engine runs it, whether
// instruments watch — move neither.
func TestCellDerivedFromSpec(t *testing.T) {
	g := specGrid(t)
	specs, _, err := g.enumerate()
	if err != nil {
		t.Fatal(err)
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(specs) {
		t.Fatalf("%d cells from %d descriptions", len(cells), len(specs))
	}
	for i, c := range cells {
		if c.Key != specs[i].Key || c.Input != string(specs[i].appendInput(nil, nil)) {
			t.Errorf("cell %d: key %s, address %q are not its description's", i, c.Key, c.Input)
		}
		spec, err := c.Spec()
		if err != nil {
			t.Fatal(err)
		}
		if spec.Engine != "" || spec.Obs != nil || spec.Iters != 7 || spec.Profile.Locks() != 4 || spec.RemotePct != 200 {
			t.Errorf("cell %d spec: engine %q, obs %v, iters %d, locks %d, remote %d%%", i, spec.Engine, spec.Obs, spec.Iters, spec.Profile.Locks(), spec.RemotePct)
		}
	}
	for _, engine := range []string{"fast", "ref"} {
		g := g
		g.Engine, g.Obs = engine, obs.NewRegistry()
		attached, err := g.Cells()
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range attached {
			if c.Key != cells[i].Key || c.Input != cells[i].Input {
				t.Errorf("engine %q with obs on: cell %d address %q, want %q", engine, i, c.Input, cells[i].Input)
			}
			if spec, err := c.Spec(); err != nil || spec.Engine != engine || spec.Obs != g.Obs {
				t.Errorf("engine %q: cell %d spec carries engine %q, obs %v (%v)", engine, i, spec.Engine, spec.Obs, err)
			}
		}
	}
}

// TestAddressesSpelledOut pins addresses literally: a change that moves
// an existing address — a field spelled differently, reordered, or
// written where it used to be left out — fails here, not as a cache
// that silently stops hitting. The network scale is written only off
// its default, so the first two were addresses before it existed.
func TestAddressesSpelledOut(t *testing.T) {
	fp, err := fault.Parse("jitter=0.2,stall=50us@0.01")
	if err != nil {
		t.Fatal(err)
	}
	tuned := Grid{Schemes: []string{"RMA-RW"}, Workloads: []string{"sharedop"}, Profiles: []string{"zipf"},
		Ps: []int{32}, Iters: 20, FW: 0.25, Faults: []*fault.Profile{fp},
		Tunables: []TunableAxis{{Key: "TR", Values: []int64{500}}, {Key: "TL1", Values: []int64{16}}}}
	scaled := tuned
	scaled.RemotePct = 400
	for _, c := range []struct {
		g    Grid
		want string
	}{
		{Grid{Schemes: []string{"RMA-RW"}, Workloads: []string{"empty"}, Profiles: []string{"uniform"}},
			"cell/v2 RMA-RW/empty/uniform/P=64 ppn=16 iters=50 seed=1 fw=0 locks=8 zipfs=1.2 think=0 thinkj=0 fm=false"},
		{tuned, "cell/v2 RMA-RW/sharedop/zipf/P=32/TL1=16,TR=500/faults=jitter=0.2,stall=50000@0.01" +
			" ppn=16 iters=20 seed=1 fw=0.25 locks=8 zipfs=1.2 think=0 thinkj=0 fm=true"},
		{scaled, "cell/v2 RMA-RW/sharedop/zipf/P=32/TL1=16,TR=500/faults=jitter=0.2,stall=50000@0.01" +
			" ppn=16 iters=20 seed=1 fw=0.25 locks=8 zipfs=1.2 think=0 thinkj=0 fm=true remote=400"},
	} {
		cells, err := c.g.Cells()
		if err != nil {
			t.Fatal(err)
		}
		if got := cells[len(cells)-1].Input; got != c.want {
			t.Errorf("address moved:\n have %q\n want %q", got, c.want)
		}
	}
}
