// Command peltalint enforces the repo's determinism, clock, pool and
// shield-confidentiality invariants at compile time. It type-checks the
// named packages (default ./...) with the standard library's go/parser +
// go/types — no external analysis framework — and reports violations of
// nine repo-specific rules.
//
// Five are syntactic, per-statement checks:
//
//	noclock      wall-clock reads (time.Now/Since/Sleep/...) in the
//	             clock-scoped packages (serve, detect, obs, fl, tee)
//	seededrand   top-level math/rand functions anywhere under internal/
//	maporder     map iteration feeding ordered output without a sort
//	poolsafety   pool buffers acquired but never released, and Put calls
//	             that would recycle shielded enclave memory
//	parallelsum  captured-float += inside parallelFor closures
//
// Four are flow-sensitive, running on internal/lint's CFG/dataflow
// engine with interprocedural function summaries:
//
//	shieldtaint    shield-confidential data (Enclave.Load results,
//	               enclave Tokens, shield-marked buffers) reaching an
//	               attacker-visible sink: HTTP responses, NDJSON/gob
//	               encoders, the FL weight-frame encoder, obs
//	               telemetry, fmt/log output, or Pool.Put without an
//	               intervening Scrub
//	errpath        an error checked on one CFG path but dropped on
//	               another
//	lockorder      AB/BA mutex acquisition cycles across serve, fl and
//	               detect, including through callees
//	clockcomplete  exported constructors of time.Time-holding types in
//	               clock-scoped packages that offer no injectable clock
//
// A legitimate violation is silenced in place with a reasoned directive on
// or directly above the offending line (or anywhere on a multi-line
// statement):
//
//	//pelta:allow noclock realClock is the production Clock implementation
//
// A directive without a reason (or naming an unknown rule) is itself a
// diagnostic, so every opt-out stays explicit and auditable. For
// shieldtaint the directive doubles as the declassification marker: every
// deliberate export of shielded data carries its justification in source.
//
// Exit status: 0 clean, 1 diagnostics found, 2 load failure. Findings are
// sorted by (file, line, column, rule) so output is byte-stable. The
// -json flag emits the report as a JSON array for CI artifacts;
// -fmt=github emits ::error workflow annotations that surface inline on
// pull-request diffs; -rules runs a subset. The CI workflow runs
// peltalint after go vet and fails on any diagnostic.
package main
