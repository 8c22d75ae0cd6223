package gofront

// The lowering pass: top-level declaration scan, main-function
// partitioning, and the statement/expression walker that turns worker
// bodies into straight-line IR ops.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/prog"
)

// lowerFile drives the whole lowering after a successful type check.
func (f *front) lowerFile() (*Program, error) {
	var mainFn *ast.FuncDecl
	f.pkgVars = map[*types.Var]bool{}
	for _, d := range f.file.Decls {
		switch d := d.(type) {
		case *ast.GenDecl:
			if d.Tok != token.VAR {
				continue // imports, consts, types carry no ops
			}
			for _, spec := range d.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					obj, _ := f.info.Defs[name].(*types.Var)
					if obj == nil || name.Name == "_" {
						continue
					}
					f.pkgVars[obj] = true
					f.registerVar(obj)
					if _, isChan := f.chans[obj]; isChan && i < len(vs.Values) {
						f.registerMake(obj, vs.Values[i])
					}
				}
			}
		case *ast.FuncDecl:
			if d.Recv != nil {
				f.errorf(d.Pos(), "methods are unsupported")
				continue
			}
			if d.Name.Name == "main" {
				mainFn = d
				continue
			}
			if d.Body == nil {
				f.errorf(d.Pos(), "func %s without a body unsupported", d.Name.Name)
				continue
			}
			if obj := f.info.Defs[d.Name]; obj != nil {
				f.funcs[obj] = d
			}
		}
	}
	if mainFn == nil || mainFn.Body == nil {
		f.errorf(f.file.Package, "no func main in file")
		return nil, f.err()
	}

	f.scanMainLocals(mainFn)
	// Every slot is registered now (package vars, then captured main
	// locals, both in declaration order); fix the region layout before
	// lowering emits any access op.
	region, vars := f.layout()
	prelude, gos, cont := f.partitionMain(mainFn.Body.List)
	f.countAdds(prelude)
	f.processPrelude(prelude)

	for _, g := range gos {
		f.lowerGoroutine(g)
	}
	if len(cont) > 0 {
		l := f.newLowerer("main", mainFn.Pos(), true)
		l.block(cont)
		f.finishWorker(l)
	}
	var unadded []*wgInfo
	for _, w := range f.wgs {
		if w.chanIdx >= 0 && w.adds == 0 {
			unadded = append(unadded, w)
		}
	}
	sort.Slice(unadded, func(i, j int) bool { return unadded[i].pos < unadded[j].pos })
	for _, w := range unadded {
		f.errorf(w.pos, "sync.WaitGroup %q used without any constant wg.Add", w.name)
	}
	if len(f.threads) == 0 {
		f.errorf(mainFn.Pos(), "program lowers to no operations (no goroutines and an empty main continuation)")
	}
	if derr := f.err(); derr != nil {
		return nil, derr
	}

	p := &prog.Program{Region: region, Locks: len(f.lockList), Chans: f.chanCaps, Threads: f.threads}
	if err := p.Validate(); err != nil {
		// Almost always unbalanced locking in the source; the IR error
		// names the worker and op, which map back through Workers.
		f.errorf(mainFn.Pos(), "lowered program is invalid: %v", err)
		return nil, f.err()
	}
	return &Program{
		File:    f.fset.Position(f.file.Package).Filename,
		Prog:    p,
		Vars:    vars,
		Locks:   f.lockList,
		Chans:   f.chanList,
		Workers: f.workers,
		Notes:   f.notes,
	}, nil
}

// scanMainLocals records variables declared by main's own statements
// (not inside closure literals) in source order, and which of them some
// goroutine closure captures. Captured scalars become shared slots;
// uncaptured ones stay private and invisible.
func (f *front) scanMainLocals(mainFn *ast.FuncDecl) {
	f.mainLocals = map[*types.Var]bool{}
	f.captured = map[*types.Var]bool{}
	var order []*types.Var
	ast.Inspect(mainFn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := f.info.Defs[id].(*types.Var); ok && id.Name != "_" {
				if !f.mainLocals[v] {
					f.mainLocals[v] = true
					order = append(order, v)
				}
			}
		}
		return true
	})
	ast.Inspect(mainFn.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, ok := f.info.Uses[id].(*types.Var); ok && f.mainLocals[v] {
					f.captured[v] = true
				}
			}
			return true
		})
		return false
	})
	for _, v := range order {
		t := v.Type()
		_, isChan := t.Underlying().(*types.Chan)
		if isSyncType(t, "Mutex") || isSyncType(t, "WaitGroup") || isChan || f.captured[v] {
			f.registerVar(v)
		}
	}
}

// partitionMain splits main's statements into the pre-goroutine
// prelude, the go statements, and the post-goroutine continuation. Go
// statements may be interleaved with prelude-class bookkeeping (wg.Add,
// channel makes); once any other statement follows a go statement the
// continuation has begun and further go statements are errors.
func (f *front) partitionMain(body []ast.Stmt) (prelude []ast.Stmt, gos []*ast.GoStmt, cont []ast.Stmt) {
	seenGo, inCont := false, false
	for _, s := range body {
		if g, ok := s.(*ast.GoStmt); ok {
			if inCont {
				f.errorf(g.Pos(), "go statement after main's continuation began; all goroutines must launch before main's first lowered operation")
				continue
			}
			gos = append(gos, g)
			seenGo = true
			continue
		}
		switch {
		case inCont:
			cont = append(cont, s)
		case !seenGo || f.isPreludeClass(s):
			prelude = append(prelude, s)
		default:
			inCont = true
			cont = append(cont, s)
		}
	}
	return prelude, gos, cont
}

// isPreludeClass reports whether s is bookkeeping that may sit between
// go statements: wg.Add, a channel make, or an empty statement.
func (f *front) isPreludeClass(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.EmptyStmt:
		return true
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		wg, method := f.wgMethod(call)
		return wg != nil && method == "Add"
	case *ast.AssignStmt:
		return len(s.Rhs) == 1 && f.isMakeChan(s.Rhs[0])
	case *ast.DeclStmt:
		return true
	}
	return false
}

// wgMethod matches a call of the form wgIdent.Method(...).
func (f *front) wgMethod(call *ast.CallExpr) (*wgInfo, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil, ""
	}
	v, ok := f.info.Uses[id].(*types.Var)
	if !ok {
		return nil, ""
	}
	if w, ok := f.wgs[v]; ok {
		return w, sel.Sel.Name
	}
	return nil, ""
}

func (f *front) isMakeChan(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) == 0 {
		return false
	}
	_, isChan := f.info.Types[call.Args[0]].Type.Underlying().(*types.Chan)
	return isChan
}

// registerMake records the make site of a channel variable, giving it
// its IR channel index and constant capacity.
func (f *front) registerMake(obj *types.Var, e ast.Expr) {
	if !f.isMakeChan(e) {
		f.errorf(e.Pos(), "channel %q must be initialized with make(chan ...)", obj.Name())
		return
	}
	if f.chans[obj] >= 0 {
		f.errorf(e.Pos(), "channel %q made twice; channels must have one static make site", obj.Name())
		return
	}
	call := e.(*ast.CallExpr)
	capacity := 0
	if len(call.Args) >= 2 {
		tv := f.info.Types[call.Args[1]]
		v, exact := constant.Int64Val(constant.ToInt(tv.Value))
		if tv.Value == nil || !exact || v < 0 {
			f.errorf(call.Args[1].Pos(), "channel capacity must be a non-negative constant")
			return
		}
		capacity = int(v)
	}
	f.chans[obj] = len(f.chanList)
	f.chanList = append(f.chanList, Named{Name: obj.Name(), Pos: f.fset.Position(obj.Pos())})
	f.chanCaps = append(f.chanCaps, capacity)
}

// countAdds totals the constant wg.Add arguments in the prelude, before
// any worker lowers a Done or Wait against the WaitGroup's channel.
func (f *front) countAdds(prelude []ast.Stmt) {
	for _, s := range prelude {
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		w, method := f.wgMethod(call)
		if w == nil || method != "Add" {
			continue
		}
		if len(call.Args) != 1 {
			f.errorf(call.Pos(), "wg.Add needs exactly one argument")
			continue
		}
		tv := f.info.Types[call.Args[0]]
		n, exact := constant.Int64Val(constant.ToInt(tv.Value))
		if tv.Value == nil || !exact || n < 0 {
			f.errorf(call.Args[0].Pos(), "wg.Add argument must be a non-negative constant")
			continue
		}
		w.adds += int(n)
	}
}

// processPrelude handles main's pre-goroutine statements: channel makes
// and wg.Add are consumed; anything else with a visible effect is
// dropped with a note (it happens-before every goroutine), and control
// flow — which could hide conditional bookkeeping — is an error.
func (f *front) processPrelude(prelude []ast.Stmt) {
	for _, s := range prelude {
		switch s := s.(type) {
		case *ast.EmptyStmt:
		case *ast.DeclStmt:
			gd, ok := s.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				f.errorf(s.Pos(), "unsupported declaration in main")
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					obj, _ := f.info.Defs[name].(*types.Var)
					if obj == nil {
						continue
					}
					if _, isChan := f.chans[obj]; isChan && i < len(vs.Values) {
						f.registerMake(obj, vs.Values[i])
					}
				}
			}
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 && f.isMakeChan(s.Rhs[0]) {
				if len(s.Lhs) == 1 {
					if id, ok := s.Lhs[0].(*ast.Ident); ok {
						if obj, ok2 := f.objOf(id); ok2 {
							if _, isChan := f.chans[obj]; isChan {
								f.registerMake(obj, s.Rhs[0])
								continue
							}
						}
					}
				}
				f.errorf(s.Pos(), "make(chan ...) must initialize a single channel variable")
				continue
			}
			f.notef(s.Pos(), "pre-goroutine assignment dropped: it happens-before every goroutine")
		case *ast.IncDecStmt:
			f.notef(s.Pos(), "pre-goroutine update dropped: it happens-before every goroutine")
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if w, method := f.wgMethod(call); w != nil && method == "Add" {
					continue // consumed by countAdds
				}
			}
			f.notef(s.Pos(), "pre-goroutine statement dropped: it happens-before every goroutine")
		default:
			f.errorf(s.Pos(), "unsupported statement before main's goroutines (control flow in the prelude could hide goroutine launches or bookkeeping)")
		}
	}
}

// objOf resolves an identifier to its variable object (use or def).
func (f *front) objOf(id *ast.Ident) (*types.Var, bool) {
	if v, ok := f.info.Uses[id].(*types.Var); ok {
		return v, true
	}
	v, ok := f.info.Defs[id].(*types.Var)
	return v, ok
}

// lowerGoroutine turns one go statement into a worker.
func (f *front) lowerGoroutine(g *ast.GoStmt) {
	pos := f.fset.Position(g.Pos())
	if len(g.Call.Args) > 0 {
		f.notef(g.Call.Pos(), "goroutine arguments are evaluated by main before the spawn; their reads happen-before every goroutine and are dropped")
	}
	switch fun := g.Call.Fun.(type) {
	case *ast.FuncLit:
		l := f.newLowerer(workerName(pos.Line, ""), g.Pos(), false)
		l.body(fun.Body)
		f.finishWorker(l)
	case *ast.Ident:
		obj := f.info.Uses[fun]
		decl := f.funcs[obj]
		if decl == nil {
			f.errorf(fun.Pos(), "go %s: not a top-level function defined in this file", fun.Name)
			return
		}
		l := f.newLowerer(workerName(pos.Line, fun.Name), g.Pos(), false)
		l.inline = append(l.inline, obj)
		l.body(decl.Body)
		f.finishWorker(l)
	default:
		f.errorf(g.Pos(), "go statement must launch a function literal or a top-level function")
	}
}

func workerName(line int, name string) string {
	if name == "" {
		return fmt.Sprintf("go@%d", line)
	}
	return fmt.Sprintf("go@%d (%s)", line, name)
}

func (f *front) newLowerer(name string, pos token.Pos, allowWait bool) *lowerer {
	return &lowerer{
		f:         f,
		w:         &Worker{Name: name, Pos: f.fset.Position(pos)},
		allowWait: allowWait,
	}
}

func (f *front) finishWorker(l *lowerer) {
	f.workers = append(f.workers, l.w)
	f.threads = append(f.threads, l.ops)
}

// lowerer lowers one worker body to ops.
type lowerer struct {
	f         *front
	w         *Worker
	ops       []prog.Op
	allowWait bool
	// inline is the stack of functions being inlined, for recursion
	// detection.
	inline []types.Object
	// defers holds one frame per body being lowered; frames flush in
	// reverse order at body end.
	defers [][]deferredOp
}

type deferredOp struct {
	op   prog.Op
	pos  token.Pos
	desc string
}

func (l *lowerer) emit(op prog.Op, pos token.Pos, desc string) {
	l.ops = append(l.ops, op)
	l.w.OpPos = append(l.w.OpPos, l.f.fset.Position(pos))
	l.w.OpDesc = append(l.w.OpDesc, desc)
}

// body lowers a block with its own defer frame.
func (l *lowerer) body(b *ast.BlockStmt) {
	l.defers = append(l.defers, nil)
	l.block(b.List)
	frame := l.defers[len(l.defers)-1]
	l.defers = l.defers[:len(l.defers)-1]
	for i := len(frame) - 1; i >= 0; i-- {
		d := frame[i]
		l.emit(d.op, d.pos, d.desc)
	}
}

func (l *lowerer) block(stmts []ast.Stmt) {
	for _, s := range stmts {
		l.stmt(s)
	}
}

// maxStmts bounds the statements one file lowers to. Nested unrolled
// loops and inlined calls multiply a small source; the bound keeps a
// load's time and memory linear in what the lowering emits.
const maxStmts = 1 << 16

func (l *lowerer) stmt(s ast.Stmt) {
	f := l.f
	f.stmts++
	if f.stmts > maxStmts {
		if f.stmts == maxStmts+1 {
			f.errorf(s.Pos(), "program lowers to more than %d statements (nested unrolling or inlining)", maxStmts)
		}
		return
	}
	switch s := s.(type) {
	case *ast.EmptyStmt:
	case *ast.BlockStmt:
		l.block(s.List)
	case *ast.AssignStmt:
		// v := <-ch / v = <-ch: the receive synchronizes, then the
		// assignment writes.
		if len(s.Rhs) == 1 {
			if u, ok := s.Rhs[0].(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				l.recv(u)
				for _, lhs := range s.Lhs {
					l.writeLHS(lhs)
				}
				return
			}
			if f.isMakeChan(s.Rhs[0]) {
				f.errorf(s.Pos(), "channels must be created at package level or in main before the goroutines")
				return
			}
		}
		if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
			for _, rhs := range s.Rhs {
				l.expr(rhs)
			}
			for _, lhs := range s.Lhs {
				l.writeLHS(lhs)
			}
			return
		}
		// Compound assignment (x += e): read-modify-write.
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			f.errorf(s.Pos(), "unsupported assignment form")
			return
		}
		l.expr(s.Lhs[0])
		l.expr(s.Rhs[0])
		l.writeLHS(s.Lhs[0])
	case *ast.IncDecStmt:
		l.expr(s.X)
		l.writeLHS(s.X)
	case *ast.SendStmt:
		l.expr(s.Value)
		id, ok := s.Chan.(*ast.Ident)
		if !ok {
			f.errorf(s.Chan.Pos(), "send target must be a channel variable")
			return
		}
		l.chanOp(id, prog.Send, s.Arrow, "send")
	case *ast.ExprStmt:
		switch x := s.X.(type) {
		case *ast.CallExpr:
			l.call(x)
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				l.recv(x)
				return
			}
			f.errorf(s.Pos(), "expression statement has no effect in the lowering")
		default:
			f.errorf(s.Pos(), "unsupported expression statement")
		}
	case *ast.IfStmt:
		f.notef(s.Pos(), "if flattened: condition reads then both branches lower in sequence (over-approximates the access set)")
		if s.Init != nil {
			l.stmt(s.Init)
		}
		l.expr(s.Cond)
		l.block(s.Body.List)
		if s.Else != nil {
			l.stmt(s.Else)
		}
	case *ast.ForStmt:
		l.unrollFor(s)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			f.errorf(s.Pos(), "unsupported declaration")
			return
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for _, v := range vs.Values {
				if f.isMakeChan(v) {
					f.errorf(v.Pos(), "channels must be created at package level or in main before the goroutines")
					continue
				}
				l.expr(v)
			}
			for _, name := range vs.Names {
				l.writeLHS(name)
			}
		}
	case *ast.DeferStmt:
		l.deferCall(s)
	case *ast.GoStmt:
		f.errorf(s.Pos(), "nested go statements are unsupported; launch every goroutine from main")
	case *ast.ReturnStmt:
		f.errorf(s.Pos(), "return is unsupported; a lowered body must fall off its end")
	default:
		f.errorf(s.Pos(), "unsupported statement (%T)", s)
	}
}

// unrollFor unrolls `for i := K; i < N; i++` with constant bounds.
func (l *lowerer) unrollFor(s *ast.ForStmt) {
	f := l.f
	trip, ok := f.constTrip(s)
	if !ok {
		f.errorf(s.Pos(), "only `for i := K; i < N; i++` loops with constant bounds unroll; this loop does not")
		return
	}
	const maxTrip = 64
	if trip > maxTrip {
		f.errorf(s.Pos(), "loop trip count %d exceeds the unroll limit %d", trip, maxTrip)
		return
	}
	f.notef(s.Pos(), fmt.Sprintf("loop unrolled %d times", trip))
	for i := 0; i < trip && f.stmts <= maxStmts; i++ {
		l.block(s.Body.List)
	}
}

// constTrip recognizes the canonical counted loop and returns its trip
// count.
func (f *front) constTrip(s *ast.ForStmt) (int, bool) {
	init, ok := s.Init.(*ast.AssignStmt)
	if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
		return 0, false
	}
	iv, ok := init.Lhs[0].(*ast.Ident)
	if !ok {
		return 0, false
	}
	start, ok := f.constInt(init.Rhs[0])
	if !ok {
		return 0, false
	}
	cond, ok := s.Cond.(*ast.BinaryExpr)
	if !ok || (cond.Op != token.LSS && cond.Op != token.LEQ) {
		return 0, false
	}
	cid, ok := cond.X.(*ast.Ident)
	if !ok || cid.Name != iv.Name {
		return 0, false
	}
	end, ok := f.constInt(cond.Y)
	if !ok {
		return 0, false
	}
	post, ok := s.Post.(*ast.IncDecStmt)
	if !ok || post.Tok != token.INC {
		return 0, false
	}
	pid, ok := post.X.(*ast.Ident)
	if !ok || pid.Name != iv.Name {
		return 0, false
	}
	trip := int(end - start)
	if cond.Op == token.LEQ {
		trip++
	}
	if trip < 0 {
		trip = 0
	}
	return trip, true
}

func (f *front) constInt(e ast.Expr) (int64, bool) {
	tv := f.info.Types[e]
	if tv.Value == nil {
		return 0, false
	}
	v, exact := constant.Int64Val(constant.ToInt(tv.Value))
	return v, exact
}

// recv lowers `<-ch`.
func (l *lowerer) recv(u *ast.UnaryExpr) {
	id, ok := u.X.(*ast.Ident)
	if !ok {
		l.f.errorf(u.Pos(), "receive source must be a channel variable")
		return
	}
	l.chanOp(id, prog.Recv, u.OpPos, "recv")
}

func (l *lowerer) chanOp(id *ast.Ident, kind prog.OpKind, pos token.Pos, verb string) {
	f := l.f
	obj, ok := f.objOf(id)
	if !ok {
		f.errorf(id.Pos(), "%s on unresolved identifier %q", verb, id.Name)
		return
	}
	idx, isChan := f.chans[obj]
	if !isChan {
		f.errorf(id.Pos(), "%s on %q, which is not a channel", verb, id.Name)
		return
	}
	if idx < 0 {
		f.errorf(id.Pos(), "channel %q has no static make site", id.Name)
		return
	}
	l.emit(prog.Op{Kind: kind, Chan: idx}, pos, verb+" "+id.Name)
}

// expr lowers an rvalue: a Read op per shared-variable read, in source
// order.
func (l *lowerer) expr(e ast.Expr) {
	f := l.f
	switch e := e.(type) {
	case *ast.Ident:
		l.readIdent(e)
	case *ast.BasicLit:
	case *ast.ParenExpr:
		l.expr(e.X)
	case *ast.BinaryExpr:
		l.expr(e.X)
		l.expr(e.Y)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			f.errorf(e.Pos(), "channel receive is only supported as a statement or as `v := <-ch`")
			return
		}
		l.expr(e.X)
	case *ast.CallExpr:
		if tv, ok := f.info.Types[e.Fun]; ok && tv.IsType() {
			for _, a := range e.Args {
				l.expr(a) // conversion: the operand is still read
			}
			return
		}
		f.errorf(e.Pos(), "function calls inside expressions are unsupported; call as a statement")
	default:
		f.errorf(e.Pos(), "unsupported expression (%T)", e)
	}
}

// readIdent lowers one identifier read.
func (l *lowerer) readIdent(id *ast.Ident) {
	f := l.f
	obj, ok := f.info.Uses[id].(*types.Var)
	if !ok {
		return // constant, builtin, type — no memory
	}
	if v := f.slots[obj]; v != nil {
		l.emit(prog.Op{Kind: prog.Read, Off: v.Off, Size: v.Size}, id.Pos(), "read "+v.Name)
		return
	}
	l.checkInvisible(id, obj, "read")
}

// writeLHS lowers one assignment target.
func (l *lowerer) writeLHS(e ast.Expr) {
	f := l.f
	id, ok := e.(*ast.Ident)
	if !ok {
		f.errorf(e.Pos(), "unsupported assignment target (only plain variables)")
		return
	}
	if id.Name == "_" {
		return
	}
	obj, ok := f.objOf(id)
	if !ok {
		return
	}
	if v := f.slots[obj]; v != nil {
		l.emit(prog.Op{Kind: prog.Write, Off: v.Off, Size: v.Size}, id.Pos(), "write "+v.Name)
		return
	}
	l.checkInvisible(id, obj, "write")
}

// checkInvisible fails loudly when a variable that IS shared cannot be
// lowered (unsupported type, or a sync object used as data); private
// locals pass silently.
func (l *lowerer) checkInvisible(id *ast.Ident, obj *types.Var, verb string) {
	f := l.f
	if _, isLock := f.locks[obj]; isLock {
		f.errorf(id.Pos(), "sync.Mutex %q used as a value", id.Name)
		return
	}
	if _, isWG := f.wgs[obj]; isWG {
		f.errorf(id.Pos(), "sync.WaitGroup %q used as a value", id.Name)
		return
	}
	if _, isChan := f.chans[obj]; isChan {
		f.errorf(id.Pos(), "channel %q used as a value (only ch <- v and <-ch)", id.Name)
		return
	}
	if f.pkgVars[obj] || f.captured[obj] {
		f.errorf(id.Pos(), "%s of shared variable %q: unsupported type %s (supported: bool, sized integers, floats)",
			verb, id.Name, obj.Type())
	}
	// Anything else is a private local: invisible to the detectors, as
	// private memory is on the machine.
}

// call lowers a call statement: sync-object methods, builtin print
// sinks, or an inlined top-level function.
func (l *lowerer) call(c *ast.CallExpr) {
	f := l.f
	switch fun := c.Fun.(type) {
	case *ast.SelectorExpr:
		l.methodCall(c, fun)
	case *ast.Ident:
		switch fun.Name {
		case "println", "print":
			if _, isBuiltin := f.info.Uses[fun].(*types.Builtin); isBuiltin {
				for _, a := range c.Args {
					l.expr(a)
				}
				return
			}
		case "make":
			f.errorf(c.Pos(), "make is only supported for channel creation in main or at package level")
			return
		}
		obj := f.info.Uses[fun]
		if decl := f.funcs[obj]; decl != nil {
			l.inlineCall(obj, decl, c)
			return
		}
		f.errorf(c.Pos(), "call of %q: not a top-level function defined in this file", fun.Name)
	default:
		f.errorf(c.Pos(), "unsupported call")
	}
}

// methodCall lowers mutex and WaitGroup method calls.
func (l *lowerer) methodCall(c *ast.CallExpr, sel *ast.SelectorExpr) {
	f := l.f
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		f.errorf(c.Pos(), "unsupported method receiver")
		return
	}
	obj, ok := f.objOf(id)
	if !ok {
		f.errorf(c.Pos(), "unresolved receiver %q", id.Name)
		return
	}
	if lockIdx, isLock := f.locks[obj]; isLock {
		switch sel.Sel.Name {
		case "Lock":
			l.emit(prog.Op{Kind: prog.Lock, Lock: lockIdx}, c.Pos(), "lock "+id.Name)
		case "Unlock":
			l.emit(prog.Op{Kind: prog.Unlock, Lock: lockIdx}, c.Pos(), "unlock "+id.Name)
		default:
			f.errorf(c.Pos(), "sync.Mutex method %s unsupported (only Lock/Unlock)", sel.Sel.Name)
		}
		return
	}
	if w, isWG := f.wgs[obj]; isWG {
		switch sel.Sel.Name {
		case "Done":
			l.emit(prog.Op{Kind: prog.Send, Chan: f.wgChan(w)}, c.Pos(), id.Name+".Done")
		case "Wait":
			if !l.allowWait {
				f.errorf(c.Pos(), "wg.Wait is only supported in main after the goroutines")
				return
			}
			w.waits++
			if w.waits > 1 {
				f.errorf(c.Pos(), "wg.Wait called more than once on %q", id.Name)
				return
			}
			for i := 0; i < w.adds; i++ {
				l.emit(prog.Op{Kind: prog.Recv, Chan: f.wgChan(w)}, c.Pos(), id.Name+".Wait")
			}
		case "Add":
			f.errorf(c.Pos(), "wg.Add is only supported in main before the goroutines")
		default:
			f.errorf(c.Pos(), "sync.WaitGroup method %s unsupported", sel.Sel.Name)
		}
		return
	}
	f.errorf(c.Pos(), "method call on %q unsupported (only sync.Mutex and sync.WaitGroup)", id.Name)
}

// wgChan allocates the WaitGroup's dedicated channel on first use; its
// capacity is the total Adds, so Done (a send) never blocks — matching
// WaitGroup semantics, where only Wait waits.
func (f *front) wgChan(w *wgInfo) int {
	if w.chanIdx < 0 {
		w.chanIdx = len(f.chanList)
		f.chanList = append(f.chanList, Named{Name: "wg " + w.name, Pos: f.fset.Position(w.pos)})
		f.chanCaps = append(f.chanCaps, w.adds)
	}
	return w.chanIdx
}

// inlineCall inlines a top-level function body at a call site. Argument
// expressions are read at the call site; parameter values are private
// and invisible, so they need no further modeling.
func (l *lowerer) inlineCall(obj types.Object, decl *ast.FuncDecl, c *ast.CallExpr) {
	f := l.f
	for _, a := range c.Args {
		l.expr(a)
	}
	for _, active := range l.inline {
		if active == obj {
			f.errorf(c.Pos(), "recursive call of %q cannot be inlined", decl.Name.Name)
			return
		}
	}
	const maxDepth = 8
	if len(l.inline) >= maxDepth {
		f.errorf(c.Pos(), "inlining depth exceeds %d", maxDepth)
		return
	}
	if decl.Type.Results != nil && len(decl.Type.Results.List) > 0 {
		f.errorf(c.Pos(), "call of %q: functions with results are unsupported", decl.Name.Name)
		return
	}
	l.inline = append(l.inline, obj)
	l.body(decl.Body)
	l.inline = l.inline[:len(l.inline)-1]
}

// deferCall handles `defer mu.Unlock()` / `defer wg.Done()`: the op is
// queued on the enclosing body's defer frame and emitted, in reverse
// order, when the body ends.
func (l *lowerer) deferCall(s *ast.DeferStmt) {
	f := l.f
	sel, ok := s.Call.Fun.(*ast.SelectorExpr)
	if !ok {
		f.errorf(s.Pos(), "only defer of mutex Lock/Unlock or wg.Done is supported")
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		f.errorf(s.Pos(), "unsupported defer receiver")
		return
	}
	obj, ok := f.objOf(id)
	if !ok {
		f.errorf(s.Pos(), "unresolved defer receiver %q", id.Name)
		return
	}
	var d deferredOp
	if lockIdx, isLock := f.locks[obj]; isLock && sel.Sel.Name == "Unlock" {
		d = deferredOp{op: prog.Op{Kind: prog.Unlock, Lock: lockIdx}, pos: s.Pos(), desc: "unlock " + id.Name + " (deferred)"}
	} else if w, isWG := f.wgs[obj]; isWG && sel.Sel.Name == "Done" {
		d = deferredOp{op: prog.Op{Kind: prog.Send, Chan: f.wgChan(w)}, pos: s.Pos(), desc: id.Name + ".Done (deferred)"}
	} else {
		f.errorf(s.Pos(), "only defer of mutex Unlock or wg.Done is supported")
		return
	}
	if len(l.defers) == 0 {
		f.errorf(s.Pos(), "defer outside a lowered body")
		return
	}
	l.defers[len(l.defers)-1] = append(l.defers[len(l.defers)-1], d)
}
