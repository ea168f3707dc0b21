package bench

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// The generated part of EXPERIMENTS.md lies between these two lines.
const (
	claimsBegin = "<!-- claims:begin (go test ./internal/bench -run TestVerifyClaimsQuickScale -update) -->\n"
	claimsEnd   = "<!-- claims:end -->\n"
)

func claimsMarkdown(claims []Claim) string {
	var b strings.Builder
	b.WriteString("| ID | Claim | Paper | Measured | Holds |\n|---|---|---|---|---|\n")
	for _, c := range claims {
		holds := "yes"
		if !c.Holds {
			holds = "**NO**"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s |\n", c.ID, c.Description, c.Paper, c.Detail, holds)
	}
	return b.String()
}

func TestVerifyClaimsQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many benchmarks")
	}
	claims, err := VerifyClaims(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) < 7 {
		t.Fatalf("only %d claims checked", len(claims))
	}
	for _, c := range claims {
		if c.Holds {
			t.Logf("%s: OK — %s", c.ID, c.Detail)
			continue
		}
		// At quick scale (P=64) every shape claim is expected to hold;
		// a failure here means the simulation or a lock regressed.
		t.Errorf("%s does not hold: %s (%s)", c.ID, c.Description, c.Detail)
	}

	// EXPERIMENTS.md records this run in the paper's own terms.
	const path = "../../EXPERIMENTS.md"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	begin, end := strings.Index(doc, claimsBegin), strings.Index(doc, claimsEnd)
	if begin < 0 || end < begin {
		t.Fatalf("%s: no %q … %q section", path, claimsBegin, claimsEnd)
	}
	begin += len(claimsBegin)
	want := claimsMarkdown(claims)
	if *update {
		if err := os.WriteFile(path, []byte(doc[:begin]+want+doc[end:]), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if doc[begin:end] != want {
		t.Errorf("%s drifted from the measured claims (regenerate with -update if intended)\ngot:\n%s", path, want)
	}
}
