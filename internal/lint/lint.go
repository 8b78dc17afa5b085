package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one rule violation at one source position.
type Diagnostic struct {
	// Rule names the violated rule (one of RuleNames) or "directive" for
	// malformed //pelta:allow comments.
	Rule    string
	Pos     token.Position
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// RuleNames lists every rule in the order reports group them. "directive"
// is not listed: it guards the opt-out mechanism itself and cannot be
// disabled or suppressed. The first five are the syntactic (per-statement)
// rules; shieldtaint, errpath, lockorder and clockcomplete are the
// flow-sensitive rules built on the CFG/dataflow engine (cfg.go,
// dataflow.go, summary.go).
var RuleNames = []string{
	"noclock", "seededrand", "maporder", "poolsafety", "parallelsum",
	"shieldtaint", "errpath", "lockorder", "clockcomplete",
}

// Default scopes: which package paths each scoped rule applies to. A scope
// entry matches a package whose import path equals it, starts with it, or
// contains it as a path-segment run (so "internal/serve" matches
// "pelta/internal/serve").
var (
	// DefaultClockScope lists the packages whose entire execution must run
	// on an injected Clock for the fake-clock reproducibility story to
	// hold: the serving scheduler, probe detector, telemetry layer, FL
	// engines and TEE simulation.
	DefaultClockScope = []string{"internal/serve", "internal/detect", "internal/obs", "internal/fl", "internal/tee"}
	// DefaultRandScope bans ambient math/rand state everywhere under
	// internal/: every experiment must thread a seeded *rand.Rand.
	DefaultRandScope = []string{"internal"}
	// DefaultTaintScope lists the packages shieldtaint audits: everywhere
	// shielded buffers are produced (core, tee), recycled (via tensor
	// pools used from core/fl), or could leak (serve, fl, obs).
	DefaultTaintScope = []string{"internal/core", "internal/tee", "internal/serve", "internal/fl", "internal/obs"}
	// DefaultLockScope lists the packages lockorder audits for AB/BA
	// mutex cycles: the concurrent serving, FL-transport and detection
	// layers.
	DefaultLockScope = []string{"internal/serve", "internal/fl", "internal/detect"}
)

// Config selects rules and scopes. The zero value enables every rule with
// the default scopes.
type Config struct {
	// Rules enables a subset by name; nil enables all rules.
	Rules map[string]bool
	// ClockScope/RandScope override the package scopes of the noclock and
	// seededrand rules (nil = defaults). TaintScope and LockScope do the
	// same for shieldtaint and lockorder; clockcomplete shares ClockScope
	// with noclock. The remaining rules (maporder, poolsafety,
	// parallelsum, errpath) apply to every checked package.
	ClockScope []string
	RandScope  []string
	TaintScope []string
	LockScope  []string
}

func (c *Config) enabled(rule string) bool {
	if c == nil || c.Rules == nil {
		return true
	}
	return c.Rules[rule]
}

func (c *Config) clockScope() []string {
	if c == nil || c.ClockScope == nil {
		return DefaultClockScope
	}
	return c.ClockScope
}

func (c *Config) randScope() []string {
	if c == nil || c.RandScope == nil {
		return DefaultRandScope
	}
	return c.RandScope
}

func (c *Config) taintScope() []string {
	if c == nil || c.TaintScope == nil {
		return DefaultTaintScope
	}
	return c.TaintScope
}

func (c *Config) lockScope() []string {
	if c == nil || c.LockScope == nil {
		return DefaultLockScope
	}
	return c.LockScope
}

// inScope reports whether importPath falls under any scope entry.
func inScope(importPath string, scope []string) bool {
	for _, s := range scope {
		if importPath == s || strings.HasPrefix(importPath, s+"/") ||
			strings.HasSuffix(importPath, "/"+s) || strings.Contains(importPath, "/"+s+"/") {
			return true
		}
	}
	return false
}

// Check runs every enabled rule over one package. It is CheckAll
// restricted to a single-package universe: interprocedural summaries
// only cover pkg itself, so cross-package taint/lock flows need CheckAll.
func Check(pkg *Package, cfg *Config) []Diagnostic {
	return CheckAll([]*Package{pkg}, cfg)
}

// CheckAll runs every enabled rule over the loaded packages and returns
// the surviving diagnostics in the global (file, line, col, rule) order.
// Function summaries for the interprocedural rules (shieldtaint,
// lockorder) are computed bottom-up over the whole package set first, so
// a flow through a helper in another checked package is still caught.
// Diagnostics carrying a matching //pelta:allow directive are
// suppressed; malformed directives are themselves reported and never
// suppress.
func CheckAll(pkgs []*Package, cfg *Config) []Diagnostic {
	var idx *summaryIndex
	if cfg.enabled("shieldtaint") || cfg.enabled("lockorder") {
		idx = buildSummaries(pkgs)
	}

	var diags []Diagnostic
	allows := newAllowSet()
	for _, pkg := range pkgs {
		pkgAllows, dirDiags := collectDirectives(pkg)
		allows.merge(pkgAllows)
		diags = append(diags, dirDiags...)

		if cfg.enabled("noclock") && inScope(pkg.ImportPath, cfg.clockScope()) {
			diags = append(diags, checkNoClock(pkg)...)
		}
		if cfg.enabled("seededrand") && inScope(pkg.ImportPath, cfg.randScope()) {
			diags = append(diags, checkSeededRand(pkg)...)
		}
		if cfg.enabled("maporder") {
			diags = append(diags, checkMapOrder(pkg)...)
		}
		if cfg.enabled("poolsafety") {
			diags = append(diags, checkPoolSafety(pkg)...)
		}
		if cfg.enabled("parallelsum") {
			diags = append(diags, checkParallelSum(pkg)...)
		}
		if cfg.enabled("shieldtaint") && inScope(pkg.ImportPath, cfg.taintScope()) {
			diags = append(diags, checkShieldTaint(pkg, idx)...)
		}
		if cfg.enabled("errpath") {
			diags = append(diags, checkErrPath(pkg)...)
		}
		if cfg.enabled("clockcomplete") && inScope(pkg.ImportPath, cfg.clockScope()) {
			diags = append(diags, checkClockComplete(pkg)...)
		}
	}
	if cfg.enabled("lockorder") {
		var scoped []*Package
		for _, pkg := range pkgs {
			if inScope(pkg.ImportPath, cfg.lockScope()) {
				scoped = append(scoped, pkg)
			}
		}
		diags = append(diags, checkLockOrder(scoped, idx)...)
	}

	kept := diags[:0]
	for _, d := range diags {
		if d.Rule != "directive" && allows.suppresses(d) {
			continue
		}
		kept = append(kept, d)
	}
	SortDiagnostics(kept)
	return kept
}

// SortDiagnostics orders diagnostics by (file, line, column, rule, message)
// so output is byte-stable across runs and package-load order.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if diags[i].Rule != diags[j].Rule {
			return diags[i].Rule < diags[j].Rule
		}
		return diags[i].Message < diags[j].Message
	})
}

// diag builds a Diagnostic for a node position.
func diag(pkg *Package, rule string, pos token.Pos, format string, args ...any) Diagnostic {
	return Diagnostic{Rule: rule, Pos: pkg.Fset.Position(pos), Message: fmt.Sprintf(format, args...)}
}

// pkgNameOf resolves an expression to the imported package it names, or nil.
func pkgNameOf(pkg *Package, x ast.Expr) *types.PkgName {
	id, ok := x.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, _ := pkg.Info.Uses[id].(*types.PkgName)
	return pn
}

// calleeName returns the bare name a call dials: the selector method/func
// name, or the identifier for plain calls. Empty when the callee is an
// anonymous or computed expression.
func calleeName(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// errorType is the universe error interface, for result-tuple matching.
var errorType = types.Universe.Lookup("error").Type()
