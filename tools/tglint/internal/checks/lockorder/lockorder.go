// Package lockorder verifies the repository's cross-package lock
// discipline. It builds a mutex acquisition graph from two inputs:
// observed nesting (a sync Lock/RLock call made while another sync mutex
// is held, tracked by a linear, flow-insensitive walk of each function
// body) and declared order (`//tg:lockorder A < B` comments, which
// assert A is always acquired before B). Edges are exported as a package
// fact and re-exported transitively, so the graph spans the whole module:
// a cycle — two packages acquiring the same two mutexes in opposite
// orders, the classic cross-subsystem deadlock — is reported in the
// package whose edge completes it.
//
// The second check is *hold-across-blocking*: while any sync mutex is
// held, the function must not perform an operation that can block
// indefinitely — a channel send/receive, a select without default, a
// range over a channel, time.Sleep, WaitGroup.Wait, a network call, or a
// call to any function that (transitively, via BlockingFact) does one of
// these. A mutex held across such an operation couples unrelated
// goroutines' progress and is how tail latency turns into deadlock under
// fault injection.
//
// Mutex identity is structural, not instance-based: `pkg.Type.field` for
// struct-field mutexes (whatever the receiver expression), `pkg.var` for
// package-level mutexes. Function-local mutexes participate in the
// held-set but never in the exported graph. The walk ignores goroutine
// bodies (`go func(){...}`) — they do not run under the caller's locks —
// and treats deferred unlocks as holding to function end. Test files are
// skipped.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"tailguard/tools/tglint/internal/lint"
)

// LockEdge is one acquisition-order edge: To was (or must be, for
// declared edges) acquired while From was held.
type LockEdge struct {
	From string
	To   string
	// Where records the function (pkg.Func) that observed or declared the
	// edge, for cycle reports.
	Where string
}

// EdgesFact is the package fact carrying the acquisition graph: this
// package's own edges plus every edge imported from its dependencies, so
// consumers need no transitive walk.
type EdgesFact struct {
	Edges []LockEdge
}

// AFact implements lint.Fact.
func (*EdgesFact) AFact() {}

// BlockingFact marks a function that may block indefinitely.
type BlockingFact struct {
	Why string
}

// AFact implements lint.Fact.
func (*BlockingFact) AFact() {}

// Analyzer implements the check.
var Analyzer = &lint.Analyzer{
	Name: "lockorder",
	Doc:  "cross-package mutex acquisition graph: report lock-order cycles (deadlocks) and mutexes held across blocking operations",
	Run:  run,
}

var declRe = regexp.MustCompile(`^//tg:lockorder\s+(\S+)\s*<\s*(\S+)\s*$`)

// mutexRef identifies one mutex in the held-set.
type mutexRef struct {
	key        string // graph key; unique per local for unexported refs
	exportable bool   // participates in the cross-package graph
	pos        token.Pos
}

// funcInfo is the per-function fixpoint state for blocking propagation.
type funcInfo struct {
	decl     *ast.FuncDecl
	obj      *types.Func
	blocking string // why the function may block ("" if it does not)
}

// checker carries one package's analysis.
type checker struct {
	pass   *lint.Pass
	byObj  map[*types.Func]*funcInfo
	edges  []LockEdge              // observed in this package
	posOf  map[[2]string]token.Pos // first observation position per edge
	report bool                    // diagnostics enabled for this walk
}

func run(pass *lint.Pass) error {
	c := &checker{
		pass:  pass,
		byObj: make(map[*types.Func]*funcInfo),
		posOf: make(map[[2]string]token.Pos),
	}
	var funcs []*funcInfo
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			fi := &funcInfo{decl: fn, obj: obj}
			funcs = append(funcs, fi)
			if obj != nil {
				c.byObj[obj] = fi
			}
		}
	}

	// Blocking fixpoint: a function blocks if its body blocks or it calls
	// a blocking function (same package via this loop, cross-package via
	// facts). Diagnostics are deferred to a final reporting walk so each
	// hold-across-blocking site is reported exactly once.
	for iter := 0; iter <= len(funcs); iter++ {
		changed := false
		for _, fi := range funcs {
			w := c.walk(fi, false)
			if w.blockReason != fi.blocking {
				fi.blocking = w.blockReason
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	c.report = true
	for _, fi := range funcs {
		c.walk(fi, true)
	}

	// Assemble the graph: imported edges, declared edges, observed edges.
	imported := c.importedEdges()
	declared := c.declaredEdges()
	local := append(append([]LockEdge(nil), declared...), c.edges...)
	c.reportCycles(local, imported)

	// Export facts.
	all := dedupeEdges(append(append([]LockEdge(nil), imported...), local...))
	if len(all) > 0 {
		c.pass.ExportPackageFact(&EdgesFact{Edges: all})
	}
	for _, fi := range funcs {
		if fi.blocking != "" && fi.obj != nil {
			c.pass.ExportObjectFact(fi.obj, &BlockingFact{Why: fi.blocking})
		}
	}
	return nil
}

// importedEdges merges the EdgesFacts of every import.
func (c *checker) importedEdges() []LockEdge {
	var out []LockEdge
	imps := c.pass.Pkg.Imports()
	paths := make([]string, 0, len(imps))
	for _, imp := range imps {
		paths = append(paths, imp.Path())
	}
	sort.Strings(paths)
	for _, p := range paths {
		var fact EdgesFact
		if c.pass.ImportPackageFact(p, &fact) {
			out = append(out, fact.Edges...)
		}
	}
	return dedupeEdges(out)
}

// declaredEdges parses `//tg:lockorder A < B` comments. Shorthand names
// (no '/') are qualified with the current package path.
func (c *checker) declaredEdges() []LockEdge {
	var out []LockEdge
	qualify := func(name string) string {
		if strings.Contains(name, "/") {
			return name
		}
		return c.pass.PkgPath() + "." + name
	}
	for _, file := range c.pass.Files {
		if c.pass.InTestFile(file.Pos()) {
			continue
		}
		for _, cg := range file.Comments {
			for _, cm := range cg.List {
				m := declRe.FindStringSubmatch(cm.Text)
				if m == nil {
					continue
				}
				out = append(out, LockEdge{
					From:  qualify(m[1]),
					To:    qualify(m[2]),
					Where: c.pass.PkgPath() + " (declared)",
				})
				if _, ok := c.posOf[[2]string{qualify(m[1]), qualify(m[2])}]; !ok {
					c.posOf[[2]string{qualify(m[1]), qualify(m[2])}] = cm.Pos()
				}
			}
		}
	}
	return out
}

// dedupeEdges drops duplicate (From, To) pairs, keeping the first Where.
func dedupeEdges(edges []LockEdge) []LockEdge {
	seen := make(map[[2]string]bool, len(edges))
	out := edges[:0:0]
	for _, e := range edges {
		k := [2]string{e.From, e.To}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// reportCycles reports every local edge that completes a cycle in the
// combined graph. Cycles made purely of imported edges were already
// reported where they arose.
func (c *checker) reportCycles(local, imported []LockEdge) {
	all := dedupeEdges(append(append([]LockEdge(nil), imported...), local...))
	adj := make(map[string][]LockEdge)
	// Declared edges (here or in any dependency) are the sanctioned
	// direction: when a cycle exists, report the acquisitions that
	// contradict a declaration, not the ones that follow it.
	sanctioned := make(map[[2]string]bool)
	for _, e := range all {
		adj[e.From] = append(adj[e.From], e)
		if strings.HasSuffix(e.Where, "(declared)") {
			sanctioned[[2]string{e.From, e.To}] = true
		}
	}
	reported := make(map[[2]string]bool)
	for _, e := range dedupeEdges(local) {
		k := [2]string{e.From, e.To}
		if reported[k] || sanctioned[k] {
			continue
		}
		if path := findPath(adj, e.To, e.From); path != nil {
			reported[k] = true
			pos := c.posOf[k]
			c.pass.Reportf(pos,
				"lock-order cycle: acquiring %s while holding %s, but %s is reachable from %s (%s); a concurrent caller deadlocks",
				e.To, e.From, e.From, e.To, strings.Join(path, " -> "))
		}
	}
}

// findPath returns the node path from -> ... -> to, or nil.
func findPath(adj map[string][]LockEdge, from, to string) []string {
	type item struct {
		node string
		path []string
	}
	visited := map[string]bool{from: true}
	queue := []item{{from, []string{from}}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if it.node == to {
			return it.path
		}
		for _, e := range adj[it.node] {
			if visited[e.To] {
				continue
			}
			visited[e.To] = true
			queue = append(queue, item{e.To, append(append([]string(nil), it.path...), e.To)})
		}
	}
	return nil
}

// walker tracks the held-mutex stack through one function body.
type walker struct {
	c           *checker
	fi          *funcInfo
	held        []mutexRef
	blockReason string
	report      bool
	localSeq    int
}

// walk analyzes one function body; report enables diagnostics and edge
// recording (the fixpoint pre-passes only compute blockReason).
func (c *checker) walk(fi *funcInfo, report bool) *walker {
	w := &walker{c: c, fi: fi, report: report}
	w.stmt(fi.decl.Body)
	return w
}

func (w *walker) where() string {
	return w.c.pass.PkgPath() + "." + w.fi.decl.Name.Name
}

// blocked records a blocking operation: it propagates to BlockingFact
// and, when a mutex is held, reports the hold-across-blocking site.
func (w *walker) blocked(pos token.Pos, what string) {
	if w.blockReason == "" {
		w.blockReason = what
	}
	if len(w.held) > 0 && w.report {
		h := w.held[len(w.held)-1]
		w.c.pass.Reportf(pos,
			"%s held across blocking %s; a stalled peer keeps the mutex pinned (move the %s outside the critical section)",
			h.key, what, what)
	}
}

func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, t := range s.List {
			w.stmt(t)
		}
	case *ast.ExprStmt:
		w.expr(s.X, false)
	case *ast.SendStmt:
		w.expr(s.Chan, false)
		w.expr(s.Value, false)
		w.blocked(s.Pos(), "channel send")
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e, false)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, false)
					}
				}
			}
		}
	case *ast.DeferStmt:
		w.expr(s.Call, true)
	case *ast.GoStmt:
		// Runs on its own goroutine, outside the caller's critical section.
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond, false)
		w.stmt(s.Body)
		w.stmt(s.Else)
	case *ast.ForStmt:
		w.stmt(s.Init)
		if s.Cond != nil {
			w.expr(s.Cond, false)
		}
		w.stmt(s.Post)
		w.stmt(s.Body)
	case *ast.RangeStmt:
		if tv, ok := w.c.pass.TypesInfo.Types[s.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.blocked(s.Pos(), "channel range")
			}
		}
		w.expr(s.X, false)
		w.stmt(s.Body)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		if s.Tag != nil {
			w.expr(s.Tag, false)
		}
		w.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Body)
	case *ast.CaseClause:
		for _, t := range s.Body {
			w.stmt(t)
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.blocked(s.Pos(), "select")
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				for _, t := range cc.Body {
					w.stmt(t)
				}
			}
		}
	case *ast.CommClause:
		for _, t := range s.Body {
			w.stmt(t)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, false)
		}
	}
}

// expr scans an expression in source order for lock transitions, channel
// receives, and blocking calls. deferred statements neither transition
// the held-set immediately (a deferred Unlock holds to function end) nor
// count as blocking at this point.
func (w *walker) expr(e ast.Expr, deferred bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // analyzed when it runs, not where it is defined
		case *ast.CallExpr:
			w.call(n, deferred)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !deferred {
				w.blocked(n.Pos(), "channel receive")
			}
		}
		return true
	})
}

// call classifies one call: sync mutex transition, known blocking
// callee, or a function with a BlockingFact.
func (w *walker) call(call *ast.CallExpr, deferred bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	var fn *types.Func
	if isSel {
		fn, _ = w.c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	} else if id, ok := call.Fun.(*ast.Ident); ok {
		fn, _ = w.c.pass.TypesInfo.Uses[id].(*types.Func)
	}
	if fn == nil {
		return
	}
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}

	if pkgPath == "sync" && isSel {
		switch fn.Name() {
		case "Lock", "RLock":
			if !deferred {
				w.lock(sel.X, call.Pos())
			}
			return
		case "Unlock", "RUnlock":
			if !deferred {
				w.unlock(sel.X)
			}
			return
		case "Wait": // WaitGroup.Wait, Cond.Wait
			if !deferred {
				w.blocked(call.Pos(), "sync."+w.recvTypeName(sel.X)+".Wait")
			}
			return
		}
	}
	if deferred {
		return
	}
	if pkgPath == "time" && fn.Name() == "Sleep" {
		w.blocked(call.Pos(), "time.Sleep")
		return
	}
	if netBlocking(pkgPath, fn.Name()) {
		w.blocked(call.Pos(), "network call "+pkgPath+"."+fn.Name())
		return
	}
	// Same-package blocking (fixpoint state).
	if fi, ok := w.c.byObj[fn]; ok {
		if fi.blocking != "" {
			w.blocked(call.Pos(), fmt.Sprintf("call to %s (%s)", fn.Name(), rootReason(fi.blocking)))
		}
		return
	}
	// Cross-package blocking (fact transport).
	var fact BlockingFact
	if w.c.pass.ImportObjectFact(fn, &fact) {
		callee := lint.NormalizePkgPath(pkgPath) + "." + lint.ObjectKey(fn)
		w.blocked(call.Pos(), fmt.Sprintf("call to %s (%s)", callee, rootReason(fact.Why)))
	}
}

// rootReason strips nested "call to X (...)" wrappers down to the
// innermost blocking operation.
func rootReason(why string) string {
	for {
		i := strings.LastIndex(why, "(")
		if i < 0 || !strings.HasPrefix(why, "call to ") {
			return why
		}
		why = strings.TrimSuffix(why[i+1:], ")")
	}
}

// netBlocking reports whether pkg.fn is a known network-blocking call.
func netBlocking(pkgPath, name string) bool {
	switch pkgPath {
	case "net/http":
		switch name {
		case "Do", "Get", "Post", "Head", "PostForm",
			"ListenAndServe", "ListenAndServeTLS", "Serve", "Shutdown":
			return true
		}
	case "net":
		return strings.HasPrefix(name, "Dial") || strings.HasPrefix(name, "Listen")
	}
	return false
}

// recvTypeName names the receiver's type for diagnostics.
func (w *walker) recvTypeName(e ast.Expr) string {
	if tv, ok := w.c.pass.TypesInfo.Types[e]; ok {
		t := tv.Type
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return n.Obj().Name()
		}
	}
	return "Locker"
}

// lock pushes the mutex and records acquisition edges from held mutexes.
func (w *walker) lock(mu ast.Expr, pos token.Pos) {
	ref := w.mutexRef(mu, pos)
	for _, h := range w.held {
		if h.key == ref.key || !h.exportable || !ref.exportable {
			continue
		}
		if w.report {
			k := [2]string{h.key, ref.key}
			if _, ok := w.c.posOf[k]; !ok {
				w.c.posOf[k] = pos
			}
			w.c.edges = append(w.c.edges, LockEdge{From: h.key, To: ref.key, Where: w.where()})
		}
	}
	w.held = append(w.held, ref)
}

// unlock pops the most recent hold of the same mutex.
func (w *walker) unlock(mu ast.Expr) {
	ref := w.mutexRef(mu, mu.Pos())
	for i := len(w.held) - 1; i >= 0; i-- {
		if w.held[i].key == ref.key {
			w.held = append(w.held[:i], w.held[i+1:]...)
			return
		}
	}
}

// mutexRef derives a mutex's graph identity from its expression:
// `pkg.Type.field` for struct fields, `pkg.var` for package-level vars,
// and a function-local pseudo-key otherwise.
func (w *walker) mutexRef(mu ast.Expr, pos token.Pos) mutexRef {
	switch e := mu.(type) {
	case *ast.SelectorExpr:
		if tv, ok := w.c.pass.TypesInfo.Types[e.X]; ok {
			t := tv.Type
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
				key := lint.NormalizePkgPath(n.Obj().Pkg().Path()) + "." + n.Obj().Name() + "." + e.Sel.Name
				return mutexRef{key: key, exportable: true, pos: pos}
			}
		}
	case *ast.Ident:
		if obj := w.c.pass.TypesInfo.Uses[e]; obj != nil && obj.Pkg() != nil {
			if obj.Parent() == obj.Pkg().Scope() {
				return mutexRef{key: lint.NormalizePkgPath(obj.Pkg().Path()) + "." + obj.Name(), exportable: true, pos: pos}
			}
			return mutexRef{key: fmt.Sprintf("local:%s:%d", obj.Name(), obj.Pos()), pos: pos}
		}
	}
	w.localSeq++
	return mutexRef{key: fmt.Sprintf("anon:%s:%d", w.where(), w.localSeq), pos: pos}
}
