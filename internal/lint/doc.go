// Package lint implements peltalint: a stdlib-only static-analysis pass
// over the repo enforcing the invariants the Pelta reproduction's
// determinism story rests on. The paper-grade claims — bit-identical FL
// rounds, fake-clock-reproducible serving traces, kernels deterministic at
// any worker count, enclave memory never leaving the shield — are all
// properties a single stray expression can silently break; the rules here
// turn each class of regression into a build failure instead of a reviewer
// grep.
//
// # Syntactic rules
//
//   - noclock: time.Now/Since/Until/Sleep/After/AfterFunc/Tick/NewTimer/
//     NewTicker are forbidden inside the clock-scoped packages
//     (internal/serve, detect, obs, fl, tee). Everything there runs on an
//     injected Clock; even `now = time.Now` defaults are flagged so every
//     wall-clock edge carries an explicit annotation.
//   - seededrand: top-level math/rand functions (rand.Intn, rand.Float64,
//     ...) are forbidden everywhere under internal/ — they draw from
//     process-global state. Constructors (rand.New, rand.NewSource) stay
//     legal; experiments thread a seeded *rand.Rand (tensor.NewRNG).
//   - maporder: a `range` over a map whose body appends to a slice, writes
//     to a Writer, formats with fmt, or builds a string is flagged unless
//     the enclosing function sorts (the collect-keys-then-sort idiom).
//     Rendered tables and JSON rows must not depend on Go's randomized map
//     iteration order.
//   - poolsafety: a tensor.Pool.Get/GetZero/GetInts or NewGraphWithPool
//     acquisition whose result never reaches Put/Release/Scrub and never
//     escapes the function leaks pooled memory; Pool.Put of a
//     shielded-named value would recycle enclave memory and is flagged
//     unconditionally.
//   - parallelsum: `+=`/`-=` on a float captured from outside a closure
//     passed to parallelFor races and accumulates in scheduling order —
//     the bit-determinism hazard the kernel layer's per-chunk-partials
//     pattern exists to avoid.
//
// # Flow-sensitive rules
//
// Four rules run on the CFG/dataflow engine (below) instead of
// per-statement syntax:
//
//   - shieldtaint: a taint analysis proving shield-confidential data —
//     tee.Enclave.Load results, Enclave capability Tokens, shield-marked
//     Pool.Get buffers and shield-named tensors — never reaches an
//     attacker-visible sink: http.ResponseWriter writes, NDJSON/gob
//     Encoder.Encode, the FL weight-frame encoder (fl's appendFrame), obs
//     span/metric/trace emission, fmt/log output, or Pool.Put without an
//     intervening Scrub. Scrub/ScrubGrad sanitize;
//     deliberate declassification is an explicit //pelta:allow
//     shieldtaint with a reason. Scoped to internal/{core,tee,serve,fl,
//     obs}; internal/attack stays out — the attacker-side oracle studies
//     shielded outputs by design.
//   - errpath: an error value consumed (checked, returned, wrapped) on
//     one CFG path but silently dropped on another. Unscoped.
//   - lockorder: pairwise mutex acquisition-order consistency across
//     internal/{serve,fl,detect}: if one path locks A then B and another
//     locks B then A (directly or through a callee's transitive
//     acquisition summary), both sites are flagged as an AB/BA deadlock
//     risk. `defer mu.Unlock()` keeps the lock held to function exit.
//   - clockcomplete: the completeness dual of noclock — every exported
//     constructor in the clock-scoped packages returning a type that
//     holds time.Time state must offer an injectable clock: a clock
//     parameter (func() time.Time, time.Time, Clock-named type, or a
//     Now() interface), a config-struct clock field, an exported clock
//     field, a threaded-now exported method, or a sibling constructor in
//     the same group that does.
//
// # CFG and dataflow architecture
//
// The engine (cfg.go, dataflow.go, summary.go) is intraprocedural with
// bottom-up interprocedural summaries:
//
//   - cfg.go derives basic blocks straight from the AST: block nodes are
//     simple statements and branch-condition expressions; if/for/range/
//     switch/select decompose into header and body blocks with branch,
//     loop back-edge, break/continue/goto/fallthrough and empty-range
//     edges. panic/os.Exit/log.Fatal ends a path; defers are recorded
//     per-function and interpreted per-rule.
//   - dataflow.go runs a forward may-analysis: state maps fact keys to
//     label bitmasks, join is pointwise OR, and a worklist iterates block
//     transfer functions to fixpoint. A reporting walk then replays each
//     block from its fixpoint entry state so rules see exactly the facts
//     reaching every node.
//   - summary.go abstracts each function for its callers, computed over
//     the `go list -export -deps` package graph in dependency order:
//     taint summaries say which parameter/receiver labels may flow into
//     each result and which reach a sink inside the callee (evaluated by
//     running the same taint transfer with symbolic parameter bits);
//     lock summaries hold the transitive mutex-acquisition set. Within a
//     package, summaries iterate a bounded number of rounds for
//     intra-package call chains. Calls without a source-level summary
//     (standard library, export-data-only deps) are treated
//     conservatively: any argument may flow into any result.
//
// # Opt-out directives
//
// A legitimate site is annotated in place, on the offending line or the
// line directly above:
//
//	//pelta:allow <rule> <reason>
//
// On a statement wrapped across several lines the directive may sit on
// any of the statement's lines (or the line above) and covers the whole
// statement extent — but never a nested function literal's body, whose
// statements carry their own directives. The reason is mandatory and the
// rule name must be real; malformed directives are "directive"
// diagnostics and never suppress. Suppression is per-rule and per-line,
// so an allow cannot blanket a whole file.
//
// # Loading
//
// The loader is go/packages-free: one `go list -export -deps -json`
// invocation supplies file lists plus compiled export data, and the stdlib
// gc importer (go/importer with a lookup function) resolves imports from
// it. Only non-test files are checked. LoadDir loads a single directory
// outside pattern matching, which is how the golden-diagnostic tests reach
// the testdata packages.
package lint
