package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// checkErrPath flags an error value that is consumed (checked, returned,
// wrapped) on at least one CFG path but silently dropped on another. The
// classic shape:
//
//	err := step()
//	if fast {
//	    return nil // err checked on the slow path only — dropped here
//	}
//	if err != nil { ... }
//
// errpath follows the value through branches, loops and switches.
//
// Facts are (object, definition site) pairs; an error-typed identifier
// assigned from a call GENs a fact, any later read of the identifier
// (a nil comparison, a return, a wrap, a reassignment) KILLs it. A fact
// surviving to the synthetic exit block means some path drops the value;
// a kill-use existing anywhere means another path consumes it — both
// together make the finding.
func checkErrPath(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			diags = append(diags, errPathFunc(pkg, fd)...)
		}
	}
	return diags
}

// errFact identifies one error definition: which object, defined where.
type errFact struct {
	obj types.Object
	pos token.Pos
}

type errPathChecker struct {
	pkg *Package
	// escaped objects — captured by a closure or address-taken — are
	// excluded: their consumption can happen outside the CFG.
	escaped map[types.Object]bool
	// reads counts identifier reads per object (excluding assignment
	// targets): a dropped error is only reported when the object is
	// consumed somewhere, i.e. on some *other* path.
	reads map[types.Object]int
	// named results are implicitly consumed by a bare return.
	namedResults []types.Object
}

func errPathFunc(pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	ec := &errPathChecker{
		pkg:     pkg,
		escaped: map[types.Object]bool{},
		reads:   map[types.Object]int{},
	}
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			for _, name := range field.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					ec.namedResults = append(ec.namedResults, obj)
				}
			}
		}
	}
	ec.prescan(fd.Body)

	c := buildCFG(pkg, fd.Body)
	in := forwardMay(c, nil, ec.transfer)
	// Deferred calls run after every path's last statement: a deferred
	// read of the error (cleanup hooks logging err) consumes it on all
	// paths.
	exit := exitState(c, in).clone()
	for _, d := range c.defers {
		ec.transfer(d.Call, exit)
	}

	var facts []errFact
	seen := map[token.Pos]bool{}
	for k := range exit {
		if fact, ok := k.(errFact); ok && !seen[fact.pos] {
			seen[fact.pos] = true
			facts = append(facts, fact)
		}
	}
	sort.Slice(facts, func(i, j int) bool { return facts[i].pos < facts[j].pos })

	var diags []Diagnostic
	for _, fact := range facts {
		if ec.reads[fact.obj] == 0 {
			// Never consumed anywhere: the compiler (for :=) or review
			// handles the fully-unused case; errpath is specifically about
			// path asymmetry.
			continue
		}
		diags = append(diags, diag(pkg, "errpath", fact.pos,
			"error %q is checked on some paths but dropped on others; handle it on every path or assign to _ explicitly", fact.obj.Name()))
	}
	return diags
}

// prescan records escaped objects and read counts over the whole body.
func (ec *errPathChecker) prescan(body *ast.BlockStmt) {
	assignTargets := map[*ast.Ident]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					assignTargets[id] = true
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
					if obj := ec.obj(id); obj != nil {
						ec.escaped[obj] = true
					}
				}
			}
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := ec.pkg.Info.Uses[id]; obj != nil {
						ec.escaped[obj] = true
					}
				}
				return true
			})
			return false
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && !assignTargets[id] {
			if obj := ec.pkg.Info.Uses[id]; obj != nil {
				ec.reads[obj]++
			}
		}
		return true
	})
}

func (ec *errPathChecker) obj(id *ast.Ident) types.Object {
	if obj := ec.pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return ec.pkg.Info.Defs[id]
}

// transfer: reads kill facts for their object; error-typed call results
// gen a fact for the assigned identifier.
func (ec *errPathChecker) transfer(n ast.Node, st flowState) {
	as, isAssign := n.(*ast.AssignStmt)

	// KILL: every identifier read inside the node consumes its object's
	// pending facts. For assignments only the RHS reads; for everything
	// else (conditions, returns, calls, sends) the whole node reads.
	killRoots := []ast.Node{n}
	if isAssign {
		killRoots = killRoots[:0]
		for _, rhs := range as.Rhs {
			killRoots = append(killRoots, rhs)
		}
	}
	if ret, ok := n.(*ast.ReturnStmt); ok && len(ret.Results) == 0 {
		// Bare return: named results are consumed.
		for _, obj := range ec.namedResults {
			killObj(st, obj)
		}
	}
	for _, root := range killRoots {
		inspectShallow(root, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			if id, ok := m.(*ast.Ident); ok {
				if obj := ec.pkg.Info.Uses[id]; obj != nil {
					killObj(st, obj)
				}
			}
			return true
		})
	}

	if !isAssign {
		return
	}
	// GEN: an error-typed identifier bound from a call starts a fact.
	// Reassignment strong-kills the previous definition first — only
	// drops that reach the exit are reported.
	fromCall := len(as.Rhs) == 1
	if fromCall {
		_, fromCall = ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	}
	for _, lhs := range as.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := ec.obj(id)
		if obj == nil {
			continue
		}
		killObj(st, obj) // strong update: previous definition is gone
		if !fromCall || ec.escaped[obj] || !types.Identical(obj.Type(), errorType) {
			continue
		}
		st[errFact{obj: obj, pos: id.Pos()}] = 1
	}
}

// killObj deletes every fact tracking obj.
func killObj(st flowState, obj types.Object) {
	for k := range st {
		if f, ok := k.(errFact); ok && f.obj == obj {
			delete(st, k)
		}
	}
}
