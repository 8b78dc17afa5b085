package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// checkShieldTaint implements the shieldtaint rule: a forward taint
// analysis over the CFG proving that shield-confidential data — enclave
// object contents, the enclave owner Token, and shield-marked buffers —
// never reaches an attacker-visible sink.
//
// Sources:
//   - results of Enclave.Load (the only API returning enclave contents),
//   - values of the enclave capability type Token,
//   - Pool.Get/GetZero results drawn from a shield-named pool,
//   - identifiers/fields whose name marks them shielded ("shield...")
//     and whose type is a tensor or float buffer.
//
// Sinks:
//   - http.ResponseWriter writes and NDJSON/JSON encoder Encode calls,
//   - obs span/metric/trace emission (any call into internal/obs),
//   - fmt/log output (Print/Fprint families, log.*),
//   - gob checkpoint serialization (gob.Encoder.Encode),
//   - the FL wire's frame encoder (fl's appendFrame),
//   - Pool.Put/PutInts (recycling shielded memory hands it to the next
//     Get) reached without an intervening Scrub.
//
// Sanitizers: Scrub/ScrubGrad kill the taint of their receiver;
// deliberate declassification is an explicit `//pelta:allow shieldtaint
// <reason>` at the sink.
//
// The analysis is interprocedural through function summaries: a callee
// that forwards parameter taint to its results, or passes a parameter
// into a sink, propagates or reports at the caller (see summary.go).
func checkShieldTaint(pkg *Package, idx *summaryIndex) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			tc := newTaintChecker(pkg, idx, fd, true)
			tc.run()
			diags = append(diags, tc.diags...)
		}
	}
	return diags
}

// taintChecker runs the taint dataflow over one function body. With
// report=false it only computes the function's summary (the bottom-up
// pass); with report=true it also emits diagnostics for bitSource
// reaching a sink.
type taintChecker struct {
	pkg     *Package
	idx     *summaryIndex
	fd      *ast.FuncDecl
	report  bool
	diags   []Diagnostic
	summary *funcSummary
	// entry maps receiver/parameter objects to their symbolic bits.
	entry flowState
	// named results, for bare-return result masks.
	resultObjs []types.Object
	seen       map[string]bool // diagnostic dedupe across walk revisits
}

func newTaintChecker(pkg *Package, idx *summaryIndex, fd *ast.FuncDecl, report bool) *taintChecker {
	tc := &taintChecker{
		pkg: pkg, idx: idx, fd: fd, report: report,
		summary: &funcSummary{},
		entry:   flowState{},
		seen:    map[string]bool{},
	}
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		if obj := pkg.Info.Defs[fd.Recv.List[0].Names[0]]; obj != nil {
			tc.entry[obj] = bitRecv
		}
	}
	i := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			if len(field.Names) == 0 {
				i++
				continue
			}
			for _, name := range field.Names {
				if obj := pkg.Info.Defs[name]; obj != nil && paramBit(i) != 0 {
					tc.entry[obj] = paramBit(i)
				}
				i++
			}
		}
	}
	if fd.Type.Results != nil {
		tc.summary.results = make([]uint64, fd.Type.Results.NumFields())
		n := 0
		for _, field := range fd.Type.Results.List {
			if len(field.Names) == 0 {
				n++
				continue
			}
			for _, name := range field.Names {
				tc.resultObjs = append(tc.resultObjs, pkg.Info.Defs[name])
				n++
			}
		}
		tc.summary.results = make([]uint64, n)
	}
	return tc
}

func (tc *taintChecker) run() {
	c := buildCFG(tc.pkg, tc.fd.Body)
	in := forwardMay(c, tc.entry, tc.transfer)
	walkBlocks(c, in, tc.transfer, tc.visit)
}

// transfer applies one node's effect on the taint state.
func (tc *taintChecker) transfer(n ast.Node, st flowState) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		tc.assign(n, st)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					obj := tc.pkg.Info.Defs[name]
					if obj == nil {
						continue
					}
					mask := uint64(0)
					if len(vs.Values) == 1 && len(vs.Names) > 1 {
						if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok {
							mask = tc.resultMask(call, i, st)
						}
					} else if i < len(vs.Values) {
						mask = tc.evalMask(vs.Values[i], st)
					}
					setMask(st, obj, mask)
				}
			}
		}
	case *ast.RangeStmt:
		// Ranging over a tainted container taints the bindings.
		mask := tc.evalMask(n.X, st)
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				if obj := tc.identObj(id); obj != nil {
					setMask(st, obj, mask)
				}
			}
		}
	case *ast.ExprStmt:
		tc.scrubKill(n.X, st)
	case *ast.DeferStmt:
		tc.scrubKill(n.Call, st)
	}
}

// scrubKill handles the sanitizer: x.Scrub()/x.ScrubGrad() clears x's
// taint — the buffer's contents have been moved into the enclave and
// zeroed in normal-world memory.
func (tc *taintChecker) scrubKill(x ast.Expr, st flowState) {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Scrub" && sel.Sel.Name != "ScrubGrad") {
		return
	}
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if obj := tc.identObj(id); obj != nil {
			delete(st, obj)
		}
	}
}

// assign updates the state for one assignment statement.
func (tc *taintChecker) assign(as *ast.AssignStmt, st flowState) {
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		// a, b := f() — per-result masks.
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			for i, lhs := range as.Lhs {
				tc.assignOne(lhs, tc.resultMask(call, i, st), st)
			}
			return
		}
		// a, ok := m[k] / x.(T) / <-ch: propagate the container mask.
		mask := tc.evalMask(as.Rhs[0], st)
		for _, lhs := range as.Lhs {
			tc.assignOne(lhs, mask, st)
		}
		return
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		mask := tc.evalMask(as.Rhs[i], st)
		if as.Tok.String() == "+=" || as.Tok.String() == "-=" || as.Tok.String() == "*=" || as.Tok.String() == "/=" {
			mask |= tc.evalMask(lhs, st)
		}
		tc.assignOne(lhs, mask, st)
	}
}

// assignOne writes mask into the LHS: a strong update for plain
// identifiers, a weak (OR) update through selectors/indexes — writing a
// tainted element into a container taints the container.
func (tc *taintChecker) assignOne(lhs ast.Expr, mask uint64, st flowState) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		if obj := tc.identObj(l); obj != nil {
			setMask(st, obj, mask)
		}
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		if mask == 0 {
			return
		}
		if root := rootIdent(lhs); root != nil {
			if obj := tc.identObj(root); obj != nil {
				st[obj] |= mask
			}
		}
	}
}

// setMask strong-updates obj's taint (deleting on zero keeps the state
// small and the fixpoint monotone per path).
func setMask(st flowState, obj types.Object, mask uint64) {
	if mask == 0 {
		delete(st, obj)
		return
	}
	st[obj] = mask
}

// identObj resolves an identifier to its object (use or def).
func (tc *taintChecker) identObj(id *ast.Ident) types.Object {
	if obj := tc.pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return tc.pkg.Info.Defs[id]
}

// rootIdent returns the base identifier of a selector/index/star chain.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// evalMask computes the taint label mask of an expression under st.
func (tc *taintChecker) evalMask(e ast.Expr, st flowState) uint64 {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		mask := uint64(0)
		if obj := tc.identObj(e); obj != nil {
			mask = st[obj]
		}
		if shieldMarked(e.Name) && tensorish(tc.typeOf(e)) {
			mask |= bitSource
		}
		if isTokenType(tc.typeOf(e)) {
			mask |= bitSource
		}
		return mask
	case *ast.SelectorExpr:
		mask := tc.evalMask(e.X, st)
		if shieldMarked(e.Sel.Name) && tensorish(tc.typeOf(e)) {
			mask |= bitSource
		}
		if isTokenType(tc.typeOf(e)) {
			mask |= bitSource
		}
		return mask
	case *ast.CallExpr:
		return tc.resultMask(e, -1, st)
	case *ast.BinaryExpr:
		switch e.Op.String() {
		case "==", "!=", "<", "<=", ">", ">=", "&&", "||":
			return 0 // boolean outcomes don't carry buffer contents
		}
		return tc.evalMask(e.X, st) | tc.evalMask(e.Y, st)
	case *ast.UnaryExpr:
		return tc.evalMask(e.X, st)
	case *ast.StarExpr:
		return tc.evalMask(e.X, st)
	case *ast.IndexExpr:
		return tc.evalMask(e.X, st)
	case *ast.SliceExpr:
		return tc.evalMask(e.X, st)
	case *ast.TypeAssertExpr:
		return tc.evalMask(e.X, st)
	case *ast.CompositeLit:
		mask := uint64(0)
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				mask |= tc.evalMask(kv.Value, st)
			} else {
				mask |= tc.evalMask(elt, st)
			}
		}
		return mask
	case *ast.KeyValueExpr:
		return tc.evalMask(e.Value, st)
	}
	return 0
}

// resultMask computes the taint mask of a call's result (result index i,
// or the union of all results when i < 0).
func (tc *taintChecker) resultMask(call *ast.CallExpr, i int, st flowState) uint64 {
	// Type conversions propagate their operand.
	if tv, ok := tc.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return tc.evalMask(call.Args[0], st)
		}
		return 0
	}
	if mask, handled := tc.builtinMask(call, st); handled {
		return mask
	}
	if src := tc.sourceMask(call, st); src != 0 {
		return src
	}
	recvMask, argMasks := tc.callMasks(call, st)
	fn := calleeFunc(tc.pkg, call)
	if fn != nil {
		if sum := tc.idx.taint[summaryKey(fn)]; sum != nil && len(sum.results) > 0 {
			sig, _ := fn.Type().(*types.Signature)
			nParams, variadic := 0, false
			if sig != nil {
				nParams, variadic = sig.Params().Len(), sig.Variadic()
			}
			if i >= 0 && i < len(sum.results) {
				return tc.tokenResult(call, i, substitute(sum.results[i], recvMask, argMasks, nParams, variadic))
			}
			mask := uint64(0)
			for _, r := range sum.results {
				mask |= substitute(r, recvMask, argMasks, nParams, variadic)
			}
			return tc.tokenResult(call, i, mask)
		}
	}
	// Unknown callee: conservative — any argument (or the receiver) may
	// flow into any result.
	mask := recvMask
	for _, am := range argMasks {
		mask |= am
	}
	return tc.tokenResult(call, i, mask)
}

// tokenResult adds bitSource when the call's (selected) result type is
// the enclave capability Token — NewEnclave-style constructors mint the
// secret even though no argument was tainted.
func (tc *taintChecker) tokenResult(call *ast.CallExpr, i int, mask uint64) uint64 {
	tv, ok := tc.pkg.Info.Types[call]
	if !ok {
		return mask
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for j := 0; j < t.Len(); j++ {
			if (i < 0 || i == j) && isTokenType(t.At(j).Type()) {
				mask |= bitSource
			}
		}
	default:
		if isTokenType(tv.Type) {
			mask |= bitSource
		}
	}
	return mask
}

// callMasks evaluates the receiver and argument masks of a call.
func (tc *taintChecker) callMasks(call *ast.CallExpr, st flowState) (recvMask uint64, argMasks []uint64) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if pkgNameOf(tc.pkg, sel.X) == nil {
			recvMask = tc.evalMask(sel.X, st)
		}
	}
	argMasks = make([]uint64, len(call.Args))
	for i, a := range call.Args {
		argMasks[i] = tc.evalMask(a, st)
	}
	return recvMask, argMasks
}

// builtinMask handles calls to builtins, which never alias their
// arguments into results except append/copy/min/max.
func (tc *taintChecker) builtinMask(call *ast.CallExpr, st flowState) (uint64, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return 0, false
	}
	if _, isBuiltin := tc.pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return 0, false
	}
	switch id.Name {
	case "append", "copy", "min", "max":
		mask := uint64(0)
		for _, a := range call.Args {
			mask |= tc.evalMask(a, st)
		}
		return mask, true
	}
	return 0, true // len, cap, make, new, delete, clear, ...
}

// sourceMask recognizes the taint sources that are calls.
func (tc *taintChecker) sourceMask(call *ast.CallExpr, st flowState) uint64 {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return 0
	}
	recv := tc.typeOf(sel.X)
	switch sel.Sel.Name {
	case "Load":
		// Enclave.Load returns enclave-resident contents.
		if namedTypeName(recv) == "Enclave" {
			return bitSource
		}
	case "Get", "GetZero":
		// A shield-marked pool hands out shielded buffers.
		if namedTypeName(recv) == "Pool" && exprHasShieldName(sel.X) {
			return bitSource
		}
	}
	return 0
}

func (tc *taintChecker) typeOf(e ast.Expr) types.Type {
	if tv, ok := tc.pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// visit is the reporting pass: inspect every call in the node for sinks
// and fold return-statement masks into the summary.
func (tc *taintChecker) visit(n ast.Node, st flowState) {
	if ret, ok := n.(*ast.ReturnStmt); ok {
		tc.recordReturn(ret, st)
	}
	inspectShallow(n, func(sub ast.Node) bool {
		if call, ok := sub.(*ast.CallExpr); ok {
			tc.sinkCheck(call, st)
		}
		return true
	})
}

// recordReturn merges this return's result masks into the summary.
func (tc *taintChecker) recordReturn(ret *ast.ReturnStmt, st flowState) {
	if len(tc.summary.results) == 0 {
		return
	}
	if len(ret.Results) == 0 {
		// Bare return: named results carry their current masks.
		for i, obj := range tc.resultObjs {
			if obj != nil && i < len(tc.summary.results) {
				tc.summary.results[i] |= st[obj]
			}
		}
		return
	}
	if len(ret.Results) == 1 && len(tc.summary.results) > 1 {
		// return f() — a tuple-forwarding return.
		if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
			for i := range tc.summary.results {
				tc.summary.results[i] |= tc.resultMask(call, i, st)
			}
		}
		return
	}
	for i, r := range ret.Results {
		if i < len(tc.summary.results) {
			tc.summary.results[i] |= tc.evalMask(r, st)
		}
	}
}

// sinkCheck classifies a call as a sink and reports/records tainted
// flows into it.
func (tc *taintChecker) sinkCheck(call *ast.CallExpr, st flowState) {
	recvMask, argMasks := tc.callMasks(call, st)
	argUnion := uint64(0)
	for _, m := range argMasks {
		argUnion |= m
	}

	if desc := tc.directSink(call); desc != "" {
		tc.sinkHit(call, desc, argUnion)
		return
	}

	// A callee that routes a parameter into a sink is a sink for the
	// corresponding argument (bottom-up interprocedural step).
	fn := calleeFunc(tc.pkg, call)
	if fn == nil {
		return
	}
	sum := tc.idx.taint[summaryKey(fn)]
	if sum == nil || sum.sinks == 0 {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	nParams, variadic := 0, false
	if sig != nil {
		nParams, variadic = sig.Params().Len(), sig.Variadic()
	}
	hit := substitute(sum.sinks, recvMask, argMasks, nParams, variadic)
	tc.sinkHit(call, sum.sinkWhat+" (inside "+fn.Name()+")", hit)
}

// directSink names the sink class of a call, or "".
func (tc *taintChecker) directSink(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if pn := pkgNameOf(tc.pkg, fn.X); pn != nil {
			switch pn.Imported().Path() {
			case "fmt":
				switch fn.Sel.Name {
				case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
					return "fmt output"
				}
				return ""
			case "log":
				return "log output"
			}
			return ""
		}
		recv := tc.typeOf(fn.X)
		recvName := namedTypeName(recv)
		switch fn.Sel.Name {
		case "Write", "WriteString":
			if recvName == "ResponseWriter" {
				return "the HTTP response"
			}
		case "Encode", "EncodeValue":
			if recvName == "Encoder" {
				if named, ok := derefType(recv).(*types.Named); ok && named.Obj().Pkg() != nil {
					switch named.Obj().Pkg().Path() {
					case "encoding/gob":
						return "gob serialization"
					case "encoding/json":
						return "the NDJSON/JSON encoding"
					}
				}
				return "an Encoder"
			}
		case "Put", "PutInts":
			if recvName == "Pool" {
				return "Pool." + fn.Sel.Name + " (recycled without Scrub)"
			}
		case "Print", "Printf", "Println", "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln", "Output":
			if recvName == "Logger" {
				return "log output"
			}
		}
		// Any call into the telemetry layer is an emission sink.
		if f, ok := tc.pkg.Info.Uses[fn.Sel].(*types.Func); ok && pkgPathEndsWith(f.Pkg(), "obs") && f.Pkg() != tc.pkg.Types {
			return "obs telemetry emission"
		}
		switch recvName {
		case "Tracer", "SpanRecord", "RoundSpan", "Registry":
			if named, ok := derefType(recv).(*types.Named); ok && (pkgPathEndsWith(named.Obj().Pkg(), "obs") || named.Obj().Pkg() == tc.pkg.Types && tc.pkg.ImportPath == "shieldtaint") {
				return "obs telemetry emission"
			}
		}
	case *ast.Ident:
		f, ok := tc.pkg.Info.Uses[fn].(*types.Func)
		if !ok {
			return ""
		}
		if pkgPathEndsWith(f.Pkg(), "obs") && f.Pkg() != tc.pkg.Types {
			return "obs telemetry emission"
		}
		// fl's frame encoder: everything it appends goes on the FL wire.
		if f.Name() == "appendFrame" {
			return "the FL weight frame"
		}
	}
	return ""
}

// sinkHit records (and in report mode, diagnoses) a mask reaching a sink.
func (tc *taintChecker) sinkHit(call *ast.CallExpr, desc string, mask uint64) {
	if mask == 0 {
		return
	}
	if mask&paramMask != 0 {
		tc.summary.sinks |= mask & paramMask
		if tc.summary.sinkWhat == "" {
			tc.summary.sinkWhat = desc
		}
	}
	if tc.report && mask&bitSource != 0 {
		pos := tc.pkg.Fset.Position(call.Pos())
		key := pos.String() + "|" + desc
		if tc.seen[key] {
			return
		}
		tc.seen[key] = true
		tc.diags = append(tc.diags, diag(tc.pkg, "shieldtaint", call.Pos(),
			"shield-confidential data reaches %s; enclave state must never leave the shield (Scrub it first or declassify with //pelta:allow shieldtaint <reason>)", desc))
	}
}

// derefType strips one pointer level.
func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// shieldMarked reports whether a name marks its value as shielded.
func shieldMarked(name string) bool {
	return strings.Contains(strings.ToLower(name), "shield")
}

// exprHasShieldName reports whether any identifier inside e is
// shield-marked (matching poolsafety's convention).
func exprHasShieldName(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && shieldMarked(id.Name) {
			found = true
		}
		return !found
	})
	return found
}

// tensorish reports whether t is a buffer type that can hold shielded
// contents: a (pointer to) named Tensor/Value, or a float slice.
func tensorish(t types.Type) bool {
	if t == nil {
		return false
	}
	switch name := namedTypeName(t); name {
	case "Tensor", "Value":
		return true
	}
	if sl, ok := t.Underlying().(*types.Slice); ok {
		if b, ok := sl.Elem().Underlying().(*types.Basic); ok {
			return b.Kind() == types.Float32 || b.Kind() == types.Float64
		}
	}
	return false
}

// isTokenType reports whether t is the enclave capability type: a named
// Token declared in a package that also declares Enclave.
func isTokenType(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := derefType(t).(*types.Named)
	if !ok || n.Obj().Name() != "Token" || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Scope().Lookup("Enclave") != nil
}

// inspectShallow walks n like ast.Inspect but does not descend into the
// bodies nested under a RangeStmt CFG header node (those statements live
// in their own blocks) — only its range expression and bindings.
func inspectShallow(n ast.Node, f func(ast.Node) bool) {
	if r, ok := n.(*ast.RangeStmt); ok {
		if r.Key != nil {
			ast.Inspect(r.Key, f)
		}
		if r.Value != nil {
			ast.Inspect(r.Value, f)
		}
		ast.Inspect(r.X, f)
		return
	}
	ast.Inspect(n, f)
}
