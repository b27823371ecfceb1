package analysis

import "go/types"

// The fact store is what makes hyvet interprocedural: analyzers attach small
// summaries ("manufactures an ambient context", "field is accessed
// atomically", "takes the receiver's write lock", "allocates from an
// unchecked parameter") to functions and fields while visiting their home
// package, and later passes — over the same package or over packages that
// import it — consume those summaries instead of re-deriving (or missing)
// them. Facts are keyed by stable symbol strings, not object pointers,
// because the same function is represented by *different* types.Func objects
// in its source-checked home package and in the export-data view an
// importing package sees. Facts live in memory for one run.

// FuncSymbol names a function stably across packages and loads:
// "pkgpath.Func" for package functions, "pkgpath.Recv.Method" for methods
// (pointer receivers without the star). The format matches policy allowlist
// sites.
func FuncSymbol(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sym := fn.Pkg().Path() + "."
	if named := receiverNamed(fn); named != nil {
		sym += named.Obj().Name() + "."
	}
	return sym + fn.Name()
}

// FieldSymbol names a struct field stably: "pkgpath.Type.Field". owner is
// the named type declaring the field.
func FieldSymbol(owner *types.Named, field string) string {
	obj := owner.Obj()
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name() + "." + field
}

// FactStore holds every fact exported during one run, keyed by (check,
// symbol). The driver processes packages in dependency order, so by the time
// an analyzer runs on a package, the facts of everything it imports (that
// was part of the run) are already present.
type FactStore struct {
	facts map[string]map[string]any // check -> symbol -> fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{facts: map[string]map[string]any{}}
}

func (s *FactStore) set(check, symbol string, fact any) {
	if symbol == "" || fact == nil {
		return
	}
	m := s.facts[check]
	if m == nil {
		m = map[string]any{}
		s.facts[check] = m
	}
	m[symbol] = fact
}

func (s *FactStore) get(check, symbol string) (any, bool) {
	fact, ok := s.facts[check][symbol]
	return fact, ok
}
