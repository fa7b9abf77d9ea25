// Package detflow taint-tracks nondeterminism across function and
// package boundaries. The determinism contract behind every golden table
// in this repository — identical (plan, seed, clock) inputs produce
// bit-identical output — is already enforced *locally* by forbidcall's
// simclock, seededrand and faultdet rows, which ban calling the sources
// directly. What they cannot see is a value that *derives* from such a
// source flowing in from another package: a helper in an unrestricted
// package returning `time.Now()`-derived jitter, an os.Getenv-dependent
// threshold, or a map-iteration-ordered slice, consumed by the
// deterministic core.
//
// detflow closes that hole with a conservative, flow-insensitive taint
// analysis: inside each function, values derived from nondeterminism
// sources (wall clock, global math/rand, crypto/rand, the process
// environment, map iteration order) propagate through assignments into
// the function's results. Functions whose results are tainted export a
// NondetFact, so the taint crosses package boundaries through the fact
// transport, and calls to them taint their results in turn. Any function
// in a *protected* package (the deterministic core listed in
// ProtectedPackages) that returns a tainted value is reported.
//
// Sanitizers: sorting a slice (sort.Strings/Ints/Float64s/Slice/Stable,
// slices.Sort/SortFunc/SortStableFunc) clears its taint — the canonical
// collect-then-sort idiom for deterministic map traversal comes out
// clean. Accumulating map-range values into an integer with a
// commutative compound assignment (+=, *=, |=, &=, ^=) is also exempt:
// exact commutative arithmetic is order-insensitive, unlike float
// accumulation, which keeps its taint.
//
// Test files are skipped: they neither export facts nor serve results to
// the simulation core.
package detflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"tailguard/tools/tglint/internal/lint"
)

// NondetFact marks a function whose results derive from a nondeterminism
// source. Source is the human-readable origin chain, e.g.
// "time.Now (via tailguard/internal/x.Jitter)".
type NondetFact struct {
	Source string
}

// AFact implements lint.Fact.
func (*NondetFact) AFact() {}

// ProtectedPackages are the deterministic-core packages: any function
// here returning a tainted value is a diagnostic, not just a fact.
var ProtectedPackages = []string{
	"tailguard/internal/cluster",
	"tailguard/internal/policy",
	"tailguard/internal/fault",
	"tailguard/internal/experiment",
	"tailguard/internal/parallel",
}

// Analyzer implements the check.
var Analyzer = &lint.Analyzer{
	Name: "detflow",
	Doc:  "interprocedural taint tracking of nondeterminism sources (wall clock, global rand, env, map order) into deterministic-core result values",
	Run:  run,
}

// protected reports whether pkgPath is in the deterministic core.
func protected(pkgPath string) bool {
	for _, p := range ProtectedPackages {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// randConstructors are the math/rand top-level functions that build
// seeded generators rather than drawing from the global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// envFuncs are the os functions exposing ambient process state.
var envFuncs = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true,
	"Hostname": true, "Getpid": true, "Getwd": true,
}

// clockFuncs are the time functions reading the wall clock.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
}

// sourceOf names the nondeterminism source a direct call represents, or
// "" when the callee is deterministic.
func sourceOf(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return "" // methods (e.g. *rand.Rand draws) are seeded, not global
	}
	switch path := fn.Pkg().Path(); path {
	case "time":
		if clockFuncs[fn.Name()] {
			return "time." + fn.Name()
		}
	case "os":
		if envFuncs[fn.Name()] {
			return "os." + fn.Name()
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			return path + "." + fn.Name()
		}
	case "crypto/rand":
		return "crypto/rand." + fn.Name()
	}
	return ""
}

// taint records why a value is nondeterministic.
type taint struct {
	source  string    // origin chain, e.g. "time.Now"
	mapOnly bool      // taint stems solely from map iteration order
	pos     token.Pos // where the taint entered this function
}

// merge combines two taints; the earlier-entering source wins the label.
func merge(a, b *taint) *taint {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := *a
	if b.pos < a.pos {
		out = *b
	}
	out.mapOnly = a.mapOnly && b.mapOnly
	return &out
}

// funcState is the per-function fixpoint state.
type funcState struct {
	decl    *ast.FuncDecl
	obj     *types.Func
	returns *taint // non-nil when a result value is tainted
}

func run(pass *lint.Pass) error {
	var funcs []*funcState
	byObj := make(map[*types.Func]*funcState)
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
			st := &funcState{decl: fn, obj: obj}
			funcs = append(funcs, st)
			if obj != nil {
				byObj[obj] = st
			}
		}
	}
	if len(funcs) == 0 {
		return nil
	}

	// Same-package call chains need a fixpoint: helper() may be analyzed
	// after its caller. Iterate until no function's verdict changes
	// (bounded by the call-graph depth, itself bounded by len(funcs)).
	for iter := 0; iter <= len(funcs); iter++ {
		changed := false
		for _, st := range funcs {
			t := analyzeFunc(pass, st, byObj)
			if (t == nil) != (st.returns == nil) || (t != nil && st.returns != nil && t.source != st.returns.source) {
				st.returns = t
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	isProtected := protected(pass.PkgPath())
	for _, st := range funcs {
		if st.returns == nil {
			continue
		}
		if st.obj != nil {
			pass.ExportObjectFact(st.obj, &NondetFact{Source: st.returns.source})
		}
		if isProtected {
			pass.Reportf(st.returns.pos,
				"result of %s derives from nondeterministic source %s; %s must stay a pure function of (plan, seed, clock) (DESIGN.md, Static verification)",
				st.decl.Name.Name, st.returns.source, pass.PkgPath())
		}
	}
	return nil
}

// analyzeFunc runs the intra-function taint pass and returns the result
// taint, if any. local knowledge of same-package functions comes from the
// fixpoint state; cross-package knowledge from NondetFacts.
func analyzeFunc(pass *lint.Pass, st *funcState, byObj map[*types.Func]*funcState) *taint {
	a := &funcTaint{
		pass:    pass,
		byObj:   byObj,
		tainted: make(map[types.Object]*taint),
	}
	// Seed: results named in the signature, so bare returns are covered.
	var namedResults []types.Object
	if r := st.decl.Type.Results; r != nil {
		for _, f := range r.List {
			for _, name := range f.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					namedResults = append(namedResults, obj)
				}
			}
		}
	}

	// The statement walk is flow-insensitive across iterations: run it a
	// few times so taint introduced late in the body reaches uses earlier
	// in source order (loops), then read off the verdict from the final
	// pass, in which sanitizer ordering (append-then-sort) is respected.
	var result *taint
	for i := 0; i < 3; i++ {
		result = nil
		ast.Inspect(st.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				a.visitRange(n)
			case *ast.AssignStmt:
				a.visitAssign(n)
			case *ast.ValueSpec:
				a.visitValueSpec(n)
			case *ast.CallExpr:
				a.visitSanitizer(n)
			case *ast.ReturnStmt:
				if t := a.visitReturn(n, namedResults); t != nil {
					result = merge(result, t)
				}
			}
			return true
		})
	}
	return result
}

// funcTaint tracks tainted objects inside one function body.
type funcTaint struct {
	pass    *lint.Pass
	byObj   map[*types.Func]*funcState
	tainted map[types.Object]*taint
}

// visitRange taints the key and value variables of a map range.
func (a *funcTaint) visitRange(n *ast.RangeStmt) {
	tv, ok := a.pass.TypesInfo.Types[n.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	for _, e := range []ast.Expr{n.Key, n.Value} {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if obj := a.pass.TypesInfo.Defs[id]; obj != nil {
			a.mark(obj, &taint{source: "map iteration order", mapOnly: true, pos: n.Pos()})
		} else if obj := a.pass.TypesInfo.Uses[id]; obj != nil {
			a.mark(obj, &taint{source: "map iteration order", mapOnly: true, pos: n.Pos()})
		}
	}
}

// mark taints obj, keeping an existing non-map-only taint dominant.
func (a *funcTaint) mark(obj types.Object, t *taint) {
	a.tainted[obj] = merge(a.tainted[obj], t)
}

// orderInsensitiveOp reports whether a compound assignment with op on typ
// is commutative and exact, so accumulation order cannot change the
// result (integer +=, *=, and bitwise ops; never floats or strings).
func orderInsensitiveOp(op token.Token, typ types.Type) bool {
	switch op {
	case token.ADD_ASSIGN, token.MUL_ASSIGN, token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
	default:
		return false
	}
	basic, ok := typ.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return basic.Info()&types.IsInteger != 0
}

// visitAssign propagates taint from RHS expressions to LHS objects.
func (a *funcTaint) visitAssign(n *ast.AssignStmt) {
	var rhs *taint
	for _, e := range n.Rhs {
		rhs = merge(rhs, a.exprTaint(e))
	}
	if rhs == nil {
		return
	}
	for _, l := range n.Lhs {
		id, ok := l.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := a.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = a.pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			continue
		}
		if n.Tok != token.ASSIGN && n.Tok != token.DEFINE &&
			rhs.mapOnly && orderInsensitiveOp(n.Tok, obj.Type()) {
			continue // exact commutative accumulation over a map
		}
		a.mark(obj, rhs)
	}
}

// visitValueSpec propagates taint through `var x = expr`.
func (a *funcTaint) visitValueSpec(n *ast.ValueSpec) {
	var rhs *taint
	for _, e := range n.Values {
		rhs = merge(rhs, a.exprTaint(e))
	}
	if rhs == nil {
		return
	}
	for _, name := range n.Names {
		if obj := a.pass.TypesInfo.Defs[name]; obj != nil {
			a.mark(obj, rhs)
		}
	}
}

// sortSanitizers clear the taint of their slice argument.
var sortSanitizers = map[string]map[string]bool{
	"sort": {
		"Strings": true, "Ints": true, "Float64s": true,
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

// visitSanitizer clears taint on arguments of sorting calls.
func (a *funcTaint) visitSanitizer(n *ast.CallExpr) {
	sel, ok := n.Fun.(*ast.SelectorExpr)
	if !ok || len(n.Args) == 0 {
		return
	}
	fn, ok := a.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	names := sortSanitizers[fn.Pkg().Path()]
	if names == nil || !names[fn.Name()] {
		return
	}
	if id, ok := n.Args[0].(*ast.Ident); ok {
		if obj := a.pass.TypesInfo.Uses[id]; obj != nil {
			delete(a.tainted, obj)
		}
	}
}

// visitReturn returns the merged taint of the returned expressions (or of
// the named results on a bare return).
func (a *funcTaint) visitReturn(n *ast.ReturnStmt, namedResults []types.Object) *taint {
	if len(n.Results) == 0 {
		var t *taint
		for _, obj := range namedResults {
			t = merge(t, a.tainted[obj])
		}
		return t
	}
	var t *taint
	for _, e := range n.Results {
		t = merge(t, a.exprTaint(e))
	}
	return t
}

// exprTaint computes the taint of an expression: tainted identifiers,
// direct nondeterminism sources, and calls to functions with a
// NondetFact (same-package via the fixpoint state, cross-package via the
// fact store).
func (a *funcTaint) exprTaint(e ast.Expr) *taint {
	var t *taint
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a closure's body taints at its own call sites
		case *ast.Ident:
			if obj := a.pass.TypesInfo.Uses[n]; obj != nil {
				t = merge(t, a.tainted[obj])
			}
		case *ast.CallExpr:
			t = merge(t, a.callTaint(n))
		}
		return true
	})
	return t
}

// callTaint returns the taint a call's results carry.
func (a *funcTaint) callTaint(call *ast.CallExpr) *taint {
	var fn *types.Func
	switch f := call.Fun.(type) {
	case *ast.Ident:
		fn, _ = a.pass.TypesInfo.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = a.pass.TypesInfo.Uses[f.Sel].(*types.Func)
	}
	if fn == nil {
		return nil
	}
	if src := sourceOf(fn); src != "" {
		return &taint{source: src, pos: call.Pos()}
	}
	// Same-package: fixpoint state (facts are not yet exported mid-run).
	if st, ok := a.byObj[fn]; ok {
		if st.returns != nil {
			return &taint{
				source:  viaSource(st.returns.source, a.pass.PkgPath(), fn.Name()),
				mapOnly: st.returns.mapOnly,
				pos:     call.Pos(),
			}
		}
		return nil
	}
	// Cross-package: the fact transport.
	var fact NondetFact
	if a.pass.ImportObjectFact(fn, &fact) {
		pkgPath := ""
		if fn.Pkg() != nil {
			pkgPath = lint.NormalizePkgPath(fn.Pkg().Path())
		}
		return &taint{source: viaSource(fact.Source, pkgPath, fn.Name()), pos: call.Pos()}
	}
	return nil
}

// viaSource extends an origin chain with the function it flowed through,
// keeping only the innermost hop so chains stay readable.
func viaSource(src, pkgPath, fnName string) string {
	root := src
	if i := strings.Index(root, " (via "); i >= 0 {
		root = root[:i]
	}
	return fmt.Sprintf("%s (via %s.%s)", root, pkgPath, fnName)
}

// Sources returns the canonical source list, for documentation tests.
func Sources() []string {
	var out []string
	for f := range clockFuncs {
		out = append(out, "time."+f)
	}
	for f := range envFuncs {
		out = append(out, "os."+f)
	}
	out = append(out, "math/rand.<global draws>", "crypto/rand.*", "map iteration order")
	sort.Strings(out)
	return out
}
