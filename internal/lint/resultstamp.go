package lint

import (
	"go/ast"
	"go/types"
)

// corePkgPath is the package whose serving types carry the per-item
// lifecycle timestamps introduced in PR 2.
const corePkgPath = "repro/internal/core"

// itemPayload / itemStamps: a core.Item literal that carries work
// (an image or a ground-truth label) must say when that work arrived.
// Index alone is exempt — Index -1 literals are the framework's
// end-of-stream sentinels and carry no payload.
var (
	itemPayload = map[string]bool{"Image": true, "Label": true}
	itemStamps  = []string{"ArrivedAt"}
)

// resultPayload / resultStamps: a core.Result literal that reports an
// inference (a prediction, a device, an error) must stamp the full
// lifecycle — arrival, service start, completion — or every latency
// split downstream (Wait, ServiceTime, goodput vs SLO) silently
// measures from zero.
var (
	resultPayload = map[string]bool{
		"Index": true, "Image": true, "Label": true, "Pred": true,
		"Confidence": true, "Device": true, "Err": true,
	}
	resultStamps = []string{"ArrivedAt", "Start", "End"}
)

// Resultstamp reports composite literals of core.Item and core.Result
// in internal/ packages that populate payload fields without the
// lifecycle timestamps. Zero literals and sentinel literals (Index
// only) pass; so does any code that builds a bare literal and routes
// it through a stamping helper such as StreamSource.Push, which sets
// ArrivedAt at the push instant. Stage-boundary hops (PR 8) get one
// extra rule: an Item literal built from a core.Result (its Index
// taken from a Result's .Index) forwards that result's item
// downstream and must *carry* the upstream arrival stamp (ArrivedAt
// from a .ArrivedAt selector) — a freshly invented stamp at a stage
// boundary silently resets the item's end-to-end latency. Test files
// are exempt: tests build half-stamped literals to probe exactly these
// edge cases.
var Resultstamp = &Analyzer{
	Name: "resultstamp",
	Doc:  "require core.Item/core.Result literals to set their lifecycle timestamps (or flow through a stamping helper)",
	Run: func(pass *Pass) {
		if !isInternalPkg(pass.Path) {
			return
		}
		for _, f := range pass.Files {
			if isTestFile(pass.Filename(f.Pos())) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				switch coreNamed(pass.TypeOf(lit)) {
				case "Item":
					checkStamps(pass, lit, "core.Item", itemPayload, itemStamps)
					checkStageHop(pass, lit)
				case "Result":
					checkStamps(pass, lit, "core.Result", resultPayload, resultStamps)
				}
				return true
			})
		}
	},
}

// checkStageHop applies the stage-boundary rule to a keyed core.Item
// literal: Index taken from a core.Result's .Index field marks the
// literal as an inter-stage hop, and its ArrivedAt must then be
// carried from an upstream .ArrivedAt field rather than re-stamped.
// A hop that omits ArrivedAt entirely is already reported by the
// payload rule, so this check only fires on a present-but-fresh
// stamp.
func checkStageHop(pass *Pass, lit *ast.CompositeLit) {
	var arrived ast.Expr
	hop := false
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			return // unkeyed literal: the payload rule's exemption applies
		}
		id, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		switch id.Name {
		case "Index":
			hop = isResultField(pass, kv.Value, "Index")
		case "ArrivedAt":
			arrived = kv.Value
		}
	}
	if !hop || arrived == nil {
		return
	}
	if isFieldSelector(arrived, "ArrivedAt") {
		return
	}
	pass.Reportf(lit.Pos(), "core.Item literal forwards a Result's item across a stage boundary but re-stamps ArrivedAt — carry the upstream result's ArrivedAt (PR 8) or end-to-end latency resets at the hop")
}

// isResultField reports whether e selects the given field of a
// core.Result value or pointer (e.g. r.Index).
func isResultField(pass *Pass, e ast.Expr, field string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != field {
		return false
	}
	t := pass.TypeOf(sel.X)
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	return coreNamed(t) == "Result"
}

// isFieldSelector reports whether e is a selector expression ending
// in the given field name (e.g. r.ArrivedAt, res.Inner.ArrivedAt).
func isFieldSelector(e ast.Expr, field string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == field
}

// coreNamed returns the name of t when it is a named type declared in
// repro/internal/core ("" otherwise).
func coreNamed(t types.Type) string {
	if t == nil {
		return ""
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != corePkgPath {
		return ""
	}
	return obj.Name()
}

// checkStamps applies the payload-implies-stamps rule to one keyed
// composite literal. Unkeyed literals necessarily set every field and
// always pass.
func checkStamps(pass *Pass, lit *ast.CompositeLit, label string, payload map[string]bool, stamps []string) {
	set := map[string]bool{}
	hasPayload := false
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			return // unkeyed literal: all fields set positionally
		}
		if id, ok := kv.Key.(*ast.Ident); ok {
			set[id.Name] = true
			hasPayload = hasPayload || payload[id.Name]
		}
	}
	if !hasPayload {
		return
	}
	var missing []string
	for _, s := range stamps {
		if !set[s] {
			missing = append(missing, s)
		}
	}
	if len(missing) == 0 {
		return
	}
	pass.Reportf(lit.Pos(), "%s literal carries payload fields but does not set %s — stamp the lifecycle (PR 2) or route it through a stamping helper", label, joinNames(missing))
}

// joinNames renders a field list for a diagnostic.
func joinNames(names []string) string {
	switch len(names) {
	case 1:
		return names[0]
	case 2:
		return names[0] + " and " + names[1]
	default:
		out := ""
		for i, n := range names[:len(names)-1] {
			if i > 0 {
				out += ", "
			}
			out += n
		}
		return out + " and " + names[len(names)-1]
	}
}
