package lint

import (
	"path/filepath"
	"regexp"
	"testing"
)

// ruleCases pairs each rule with a config scoping it onto its testdata
// package (LoadDir uses the directory base name as the import path).
var ruleCases = []struct {
	rule string
	cfg  *Config
}{
	{"noclock", &Config{Rules: map[string]bool{"noclock": true}, ClockScope: []string{"noclock"}}},
	{"seededrand", &Config{Rules: map[string]bool{"seededrand": true}, RandScope: []string{"seededrand"}}},
	{"maporder", &Config{Rules: map[string]bool{"maporder": true}}},
	{"poolsafety", &Config{Rules: map[string]bool{"poolsafety": true}}},
	{"parallelsum", &Config{Rules: map[string]bool{"parallelsum": true}}},
	{"shieldtaint", &Config{Rules: map[string]bool{"shieldtaint": true}, TaintScope: []string{"shieldtaint"}}},
	{"errpath", &Config{Rules: map[string]bool{"errpath": true}}},
	{"lockorder", &Config{Rules: map[string]bool{"lockorder": true}, LockScope: []string{"lockorder"}}},
	{"clockcomplete", &Config{Rules: map[string]bool{"clockcomplete": true}, ClockScope: []string{"clockcomplete"}}},
}

// TestGoldenDiagnostics runs every rule against its testdata package and
// compares the diagnostics against the "// want" expectation comments
// (each carrying a backtick-quoted regex): every want must be matched by
// a diagnostic on its line, and
// every diagnostic must be claimed by a want. A disabled or broken rule
// therefore fails the test through its unmatched wants.
func TestGoldenDiagnostics(t *testing.T) {
	for _, tc := range ruleCases {
		t.Run(tc.rule, func(t *testing.T) {
			runGolden(t, filepath.Join("testdata", "src", tc.rule), tc.cfg)
		})
	}
}

// TestAllowStatementExtent pins //pelta:allow attachment on multi-line
// statements and inside defer/closure bodies (testdata/src/allowext):
// a directive anywhere on a wrapped statement — or the line above it —
// covers diagnostics across the statement's extent, while a directive on
// a defer header does NOT blanket the closure body.
func TestAllowStatementExtent(t *testing.T) {
	runGolden(t, filepath.Join("testdata", "src", "allowext"),
		&Config{Rules: map[string]bool{"noclock": true}, ClockScope: []string{"allowext"}})
}

// TestRuleDisabled proves the config wiring: with the rule switched off,
// the same testdata produces zero diagnostics.
func TestRuleDisabled(t *testing.T) {
	for _, tc := range ruleCases {
		t.Run(tc.rule, func(t *testing.T) {
			pkg, err := LoadDir(filepath.Join("testdata", "src", tc.rule))
			if err != nil {
				t.Fatal(err)
			}
			off := &Config{
				Rules:      map[string]bool{tc.rule: false},
				ClockScope: tc.cfg.ClockScope,
				RandScope:  tc.cfg.RandScope,
				TaintScope: tc.cfg.TaintScope,
				LockScope:  tc.cfg.LockScope,
			}
			if diags := Check(pkg, off); len(diags) != 0 {
				t.Fatalf("rule %s disabled but produced %d diagnostics, first: %s", tc.rule, len(diags), diags[0])
			}
		})
	}
}

// TestScopedRulesRespectScope: a clock-scoped rule must not fire on a
// package outside its scope even when the package is full of violations.
func TestScopedRulesRespectScope(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "noclock"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := &Config{Rules: map[string]bool{"noclock": true}, ClockScope: []string{"internal/serve"}}
	if diags := Check(pkg, cfg); len(diags) != 0 {
		t.Fatalf("noclock fired outside its scope: %s", diags[0])
	}
}

func TestInScope(t *testing.T) {
	cases := []struct {
		path, scope string
		want        bool
	}{
		{"pelta/internal/serve", "internal/serve", true},
		{"pelta/internal/serve", "internal", true},
		{"pelta/internal/servedata", "internal/serve", false},
		{"internal/serve", "internal/serve", true},
		{"pelta/internal/fl", "internal/serve", false},
		{"pelta/cmd/peltaserve", "internal", false},
		{"noclock", "noclock", true},
	}
	for _, c := range cases {
		if got := inScope(c.path, []string{c.scope}); got != c.want {
			t.Errorf("inScope(%q, %q) = %v, want %v", c.path, c.scope, got, c.want)
		}
	}
}

// want comments: "// want" followed by a backtick-quoted regex, which
// keeps the regexes free of escaping noise.
var wantRE = regexp.MustCompile("// want `([^`]+)`")

type wantKey struct {
	file string
	line int
}

// runGolden loads dir, runs Check under cfg, and diffs diagnostics against
// the want comments.
func runGolden(t *testing.T, dir string, cfg *Config) {
	t.Helper()
	pkg, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[wantKey][]*regexp.Regexp{}
	total := 0
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regex %q: %v", m[1], err)
				}
				pos := pkg.Fset.Position(c.Pos())
				k := wantKey{file: pos.Filename, line: pos.Line}
				wants[k] = append(wants[k], re)
				total++
			}
		}
	}
	if total == 0 {
		t.Fatalf("no want comments in %s", dir)
	}

	for _, d := range Check(pkg, cfg) {
		k := wantKey{file: d.Pos.Filename, line: d.Pos.Line}
		matched := false
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				wants[k] = append(wants[k][:i], wants[k][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
		}
	}
}

// TestSortDiagnosticsStable pins the global report order: (file, line,
// column, rule, message), independent of production order — so -json
// output is byte-stable across runs and package-load order.
func TestSortDiagnosticsStable(t *testing.T) {
	mk := func(file string, line, col int, rule, msg string) Diagnostic {
		d := Diagnostic{Rule: rule, Message: msg}
		d.Pos.Filename, d.Pos.Line, d.Pos.Column = file, line, col
		return d
	}
	want := []Diagnostic{
		mk("a.go", 1, 1, "errpath", "x"),
		mk("a.go", 1, 1, "noclock", "x"),
		mk("a.go", 1, 2, "noclock", "x"),
		mk("a.go", 2, 1, "maporder", "a"),
		mk("a.go", 2, 1, "maporder", "b"),
		mk("b.go", 1, 1, "lockorder", "x"),
	}
	// Three adversarial production orders, including reversed.
	perms := [][]int{{5, 4, 3, 2, 1, 0}, {2, 0, 5, 1, 4, 3}, {3, 5, 0, 4, 2, 1}}
	for _, perm := range perms {
		got := make([]Diagnostic, len(want))
		for i, j := range perm {
			got[i] = want[j]
		}
		SortDiagnostics(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("perm %v: position %d = %v, want %v", perm, i, got[i], want[i])
			}
		}
	}
}

// TestDiagnosticString pins the report line format CI greps.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Rule: "noclock", Message: "boom"}
	d.Pos.Filename, d.Pos.Line, d.Pos.Column = "x.go", 3, 7
	if got, want := d.String(), "x.go:3:7: noclock: boom"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestDefaultScopes pins the production scope lists the repo's invariants
// depend on: losing a package from the clock scope would silently stop
// guarding it.
func TestDefaultScopes(t *testing.T) {
	for _, p := range []string{"internal/serve", "internal/detect", "internal/obs", "internal/fl", "internal/tee"} {
		if !inScope("pelta/"+p, DefaultClockScope) {
			t.Errorf("clock scope lost %s", p)
		}
	}
	if !inScope("pelta/internal/tensor", DefaultRandScope) {
		t.Error("rand scope must cover all of internal/")
	}
	if inScope("pelta/cmd/peltaserve", DefaultClockScope) {
		t.Error("cmd/ must stay outside the clock scope: process edges stamp wall time")
	}
	for _, p := range []string{"internal/core", "internal/tee", "internal/serve", "internal/fl", "internal/obs"} {
		if !inScope("pelta/"+p, DefaultTaintScope) {
			t.Errorf("taint scope lost %s", p)
		}
	}
	for _, p := range []string{"internal/serve", "internal/fl", "internal/detect"} {
		if !inScope("pelta/"+p, DefaultLockScope) {
			t.Errorf("lock scope lost %s", p)
		}
	}
	if inScope("pelta/internal/attack", DefaultTaintScope) {
		t.Error("attack stays outside the taint scope: the attacker-side oracle is MEANT to study shielded outputs")
	}
}
