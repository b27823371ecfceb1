package hyql

import (
	"fmt"
	"strings"

	"hygraph/internal/lpg"
)

// VKind enumerates runtime value kinds.
type VKind int

// Runtime value kinds: scalars, graph entities, paths and lists.
const (
	VScalar VKind = iota
	VNode
	VEdge
	VPath
	VList
)

// Value is a HyQL runtime value.
type Value struct {
	kind   VKind
	scalar lpg.Value
	node   *lpg.Vertex
	edge   *lpg.Edge
	path   []lpg.EdgeID
	list   []Value
}

// Scalar wraps an lpg scalar.
func Scalar(v lpg.Value) Value { return Value{kind: VScalar, scalar: v} }

// NullValue is the null scalar.
var NullValue = Scalar(lpg.Null)

// NodeValue wraps a bound vertex.
func NodeValue(v *lpg.Vertex) Value { return Value{kind: VNode, node: v} }

// EdgeValue wraps a bound edge.
func EdgeValue(e *lpg.Edge) Value { return Value{kind: VEdge, edge: e} }

// PathValue wraps a variable-length path binding.
func PathValue(p []lpg.EdgeID) Value { return Value{kind: VPath, path: p} }

// ListValue wraps a list (collect results).
func ListValue(vs []Value) Value { return Value{kind: VList, list: vs} }

// Kind returns the value kind.
func (v Value) Kind() VKind { return v.kind }

// AsScalar returns the scalar payload (Null for non-scalars).
func (v Value) AsScalar() lpg.Value {
	if v.kind == VScalar {
		return v.scalar
	}
	return lpg.Null
}

// List returns the list payload.
func (v Value) List() []Value { return v.list }

// Node returns the bound vertex (nil otherwise).
func (v Value) Node() *lpg.Vertex {
	if v.kind == VNode {
		return v.node
	}
	return nil
}

// Edge returns the bound edge (nil otherwise).
func (v Value) Edge() *lpg.Edge {
	if v.kind == VEdge {
		return v.edge
	}
	return nil
}

// IsNull reports whether the value is the null scalar.
func (v Value) IsNull() bool { return v.kind == VScalar && v.scalar.IsNull() }

// Truthy reports whether the value counts as true in WHERE.
func (v Value) Truthy() bool {
	if v.kind != VScalar {
		return false
	}
	b, ok := v.scalar.AsBool()
	return ok && b
}

// AsFloat widens a numeric scalar.
func (v Value) AsFloat() (float64, bool) {
	if v.kind != VScalar {
		return 0, false
	}
	return v.scalar.AsFloat()
}

// String renders the value for result tables.
func (v Value) String() string {
	switch v.kind {
	case VScalar:
		return v.scalar.String()
	case VNode:
		return fmt.Sprintf("(#%d)", v.node.ID)
	case VEdge:
		return fmt.Sprintf("[#%d:%s]", v.edge.ID, v.edge.Label)
	case VPath:
		return fmt.Sprintf("path(len=%d)", len(v.path))
	case VList:
		parts := make([]string, len(v.list))
		for i, x := range v.list {
			parts[i] = x.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	}
	return "?"
}

// key returns a canonical string usable as a grouping / DISTINCT key.
func (v Value) key() string {
	switch v.kind {
	case VScalar:
		return "s:" + v.scalar.Kind().String() + ":" + v.scalar.String()
	case VNode:
		return fmt.Sprintf("n:%d", v.node.ID)
	case VEdge:
		return fmt.Sprintf("e:%d", v.edge.ID)
	case VPath:
		return fmt.Sprintf("p:%v", v.path)
	case VList:
		parts := make([]string, len(v.list))
		for i, x := range v.list {
			parts[i] = x.key()
		}
		return "l:[" + strings.Join(parts, "|") + "]"
	}
	return "?"
}

// sameKey reports whether l.key() == r.key(). For two scalars it compares
// kind and text instead of building both keys: a kind name holds no ':', so
// the keys are equal exactly when those are.
func sameKey(l, r Value) bool {
	if l.kind == VScalar && r.kind == VScalar {
		return l.scalar.Kind() == r.scalar.Kind() && l.scalar.String() == r.scalar.String()
	}
	return l.key() == r.key()
}

// compare orders two values for ORDER BY: scalars by lpg.Value.Compare,
// entities by id, mixed kinds by kind.
func (v Value) compare(o Value) int {
	if v.kind != o.kind {
		return int(v.kind) - int(o.kind)
	}
	switch v.kind {
	case VScalar:
		return v.scalar.Compare(o.scalar)
	case VNode:
		return int(v.node.ID - o.node.ID)
	case VEdge:
		return int(v.edge.ID - o.edge.ID)
	case VPath:
		return len(v.path) - len(o.path)
	case VList:
		if d := len(v.list) - len(o.list); d != 0 {
			return d
		}
		for i := range v.list {
			if d := v.list[i].compare(o.list[i]); d != 0 {
				return d
			}
		}
	}
	return 0
}
