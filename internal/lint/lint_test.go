package lint

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestSelfTest runs the full driver over the seeded-violation corpus:
// every analyzer must fire on its positive fixture, every diagnostic
// must be expected, and the clean fixtures must stay silent.
func TestSelfTest(t *testing.T) {
	src, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	if err := SelfTest(src); err != nil {
		t.Fatal(err)
	}
}

// TestAsvlintCleanOnRepo runs the suite over the repository itself: the
// codebase must stay free of findings, with every intentional deviation
// carrying its annotation. This is the check CI runs via cmd/asvlint;
// having it as a test too keeps `go test ./...` the single local gate.
func TestAsvlintCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := ModuleDir(".")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text    string
		ok      bool
		wantErr bool
		name    string
		arg     string
		reason  string
	}{
		{"// plain comment", false, false, "", "", ""},
		{"//go:noinline", false, false, "", "", ""},
		{"//asv:locked=exclusive", true, false, "locked", "exclusive", ""},
		{"//asv:locked=update", true, false, "locked", "update", ""},
		{"//asv:locked=scan", true, true, "locked", "", ""}, // not a lock mode
		{"//asv:locked", true, true, "locked", "", ""},
		{"//asv:locked=bogus", true, true, "locked", "", ""},
		{"//asv:acquires=update", true, false, "acquires", "update", ""},
		{"//asv:acquires=any", true, true, "acquires", "", ""}, // "any" is not acquirable
		{"//asv:releases=mu", true, false, "releases", "mu", ""},
		{"//asv:immutable", true, false, "immutable", "", ""},
		{"//asv:immutable=yes", true, true, "immutable", "", ""},
		{"//asv:handoff stored in the engine state", true, false, "handoff", "", "stored in the engine state"},
		{"//asv:handoff", true, true, "handoff", "", ""},
		{"//asv:ignore-err best-effort teardown", true, false, "ignore-err", "", "best-effort teardown"},
		{"//asv:ignore-err", true, true, "ignore-err", "", ""},
		{"//asv:allow=locked workers finish before the room reopens", true, false, "allow", "locked", "workers finish before the room reopens"},
		{"//asv:allow=locked", true, true, "allow", "", ""},
		{"//asv:allow no analyzer named", true, true, "allow", "", ""},
		{"//asv:frobnicate", true, true, "frobnicate", "", ""},
	}
	for _, tc := range cases {
		c := &ast.Comment{Text: tc.text}
		d, ok, err := parseDirective(c, token.Position{Filename: "x.go", Line: 1})
		if ok != tc.ok {
			t.Errorf("%q: ok = %v, want %v", tc.text, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if (err != nil) != tc.wantErr {
			t.Errorf("%q: err = %v, wantErr %v", tc.text, err, tc.wantErr)
			continue
		}
		if err != nil {
			continue
		}
		if d.name != tc.name || d.arg != tc.arg || d.text != tc.reason {
			t.Errorf("%q: parsed (%q,%q,%q), want (%q,%q,%q)", tc.text, d.name, d.arg, d.text, tc.name, tc.arg, tc.reason)
		}
	}
}

func TestLineDirectiveAttachment(t *testing.T) {
	ld := newLineDirectives()
	ld.add(directive{name: "handoff", text: "r", pos: token.Position{Filename: "f.go", Line: 10}})
	for _, line := range []int{10, 11} {
		if !ld.handoffAt(token.Position{Filename: "f.go", Line: line}) {
			t.Errorf("handoff should attach to line %d", line)
		}
	}
	if ld.handoffAt(token.Position{Filename: "f.go", Line: 12}) {
		t.Error("handoff must not attach two lines down")
	}
	if ld.handoffAt(token.Position{Filename: "g.go", Line: 10}) {
		t.Error("handoff must not leak across files")
	}
}

func TestSatisfies(t *testing.T) {
	held := func(modes ...string) map[string]bool {
		h := make(map[string]bool)
		for _, m := range modes {
			h[m] = true
		}
		return h
	}
	cases := []struct {
		held map[string]bool
		req  string
		want bool
	}{
		{held(), modeAny, false},
		{held(modeMu), modeAny, true},
		{held(modeUpdate), modeUpdate, true},
		{held(), modeUpdate, false},
		{held(modeExclusive), modeUpdate, true},
		{held(modeExclusive), modeExclusive, true},
		{held(modeUpdate), modeExclusive, false},
		{held(modeMu), modeMu, true},
		{held(modeExclusive), modeMu, false},
		{held(modeAny), modeExclusive, false},
	}
	for _, tc := range cases {
		if got := satisfies(tc.held, tc.req); got != tc.want {
			t.Errorf("satisfies(%v, %q) = %v, want %v", tc.held, tc.req, got, tc.want)
		}
	}
}

// TestDiagnosticFormat pins the output shape the CI log (and the
// self-test corpus) depend on.
func TestDiagnosticFormat(t *testing.T) {
	d := Diagnostic{
		Pos:      token.Position{Filename: "internal/core/state.go", Line: 4, Column: 2},
		Analyzer: "immutable",
		Message:  "boom",
	}
	if got, want := d.String(), "internal/core/state.go:4:2: [immutable] boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestModuleDirRefusesOutsideModule(t *testing.T) {
	if _, err := ModuleDir(t.TempDir()); err == nil || !strings.Contains(err.Error(), "go.mod") {
		t.Errorf("ModuleDir on a bare temp dir: err = %v, want go.mod complaint", err)
	}
}
