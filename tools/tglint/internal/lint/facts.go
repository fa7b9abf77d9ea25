package lint

// Facts are tglint's interprocedural layer, mirroring the shape of
// golang.org/x/tools' analysis.Fact: an analyzer attaches a fact to a
// package-level object (or to a package as a whole) while analyzing the
// package that declares it, and analyzers of downstream packages read
// those facts back. The driver and the golden-test harness share one
// in-memory FactStore across a Session, analyzing module dependencies
// facts-first.
//
// Facts are keyed by (normalized package path, object key, fact type),
// never by go/types object identity, so repeated type-checks of the same
// source (a package's library and test-inclusive variants) agree on what
// a fact is attached to.

import (
	"go/types"
	"reflect"
)

// Fact is a datum an analyzer exports for a package-level object or a
// package. Implementations must be pointers to structs.
type Fact interface {
	// AFact marks the type as a fact; it has no behavior.
	AFact()
}

// factKey identifies one stored fact. obj is "" for package facts.
type factKey struct {
	pkg  string // normalized import path of the declaring package
	obj  string // ObjectKey of the declaring object, or "" for the package
	fact string // reflect type string of the fact, e.g. "detflow.NondetFact"
}

// FactStore holds facts across an analysis session.
// Drivers are single-threaded; the store is not safe for concurrent use.
type FactStore struct {
	m map[factKey]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: make(map[factKey]Fact)}
}

// factName names a fact's concrete type for keys.
func factName(f Fact) string {
	t := reflect.TypeOf(f)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.String()
}

// ObjectKey renders a package-level object as a stable string: "F" for
// functions, vars, types, and consts; "T.M" for methods (pointer and
// value receivers collapse to the same key).
func ObjectKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return n.Obj().Name() + "." + fn.Name()
			}
		}
	}
	return obj.Name()
}

// objectPkgPath returns the normalized package path of obj, or "" when
// obj has no package (builtins).
func objectPkgPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return NormalizePkgPath(obj.Pkg().Path())
}

// set stores a fact, replacing any previous fact of the same type on the
// same target.
func (s *FactStore) set(pkg, obj string, f Fact) {
	s.m[factKey{pkg, obj, factName(f)}] = f
}

// get copies the stored fact for (pkg, obj, type of target) into target,
// which must be a pointer to a fact struct. It reports whether a fact was
// found.
func (s *FactStore) get(pkg, obj string, target Fact) bool {
	stored, ok := s.m[factKey{pkg, obj, factName(target)}]
	if !ok {
		return false
	}
	dst := reflect.ValueOf(target)
	src := reflect.ValueOf(stored)
	if dst.Kind() != reflect.Pointer || src.Kind() != reflect.Pointer {
		return false
	}
	dst.Elem().Set(src.Elem())
	return true
}

// ExportObjectFact attaches a fact to obj, a package-level object of the
// pass's package.
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) {
	if p.facts == nil || obj == nil {
		return
	}
	pkg := objectPkgPath(obj)
	if pkg == "" {
		return
	}
	p.facts.set(pkg, ObjectKey(obj), f)
}

// ImportObjectFact copies the fact of target's type attached to obj into
// target and reports whether one exists. Same-session facts exported by
// earlier passes (dependencies first) are visible.
func (p *Pass) ImportObjectFact(obj types.Object, target Fact) bool {
	if p.facts == nil || obj == nil {
		return false
	}
	pkg := objectPkgPath(obj)
	if pkg == "" {
		return false
	}
	return p.facts.get(pkg, ObjectKey(obj), target)
}

// ExportPackageFact attaches a fact to the pass's package.
func (p *Pass) ExportPackageFact(f Fact) {
	if p.facts == nil {
		return
	}
	p.facts.set(p.PkgPath(), "", f)
}

// ImportPackageFact copies the package fact of target's type attached to
// pkgPath into target and reports whether one exists.
func (p *Pass) ImportPackageFact(pkgPath string, target Fact) bool {
	if p.facts == nil {
		return false
	}
	return p.facts.get(NormalizePkgPath(pkgPath), "", target)
}
