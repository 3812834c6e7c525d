package lint

import (
	"go/token"
	"strings"
)

// allowDirective is one parsed //ncsw:allow comment.
type allowDirective struct {
	pos      token.Pos
	analyzer string // the analyzer being silenced
	reason   string // mandatory justification
	bad      string // non-empty when the directive is malformed
	used     bool   // it suppressed at least one finding
}

// directivePrefix is the comment marker that suppresses one finding.
// Full form:
//
//	//ncsw:allow <analyzer> <reason>
//
// placed on the flagged line or the line immediately above it. The
// reason is not optional: an unexplained suppression is itself a
// finding.
const directivePrefix = "ncsw:allow"

// parseDirectives extracts every //ncsw:allow directive in pkg:
// an index keyed by file and line for suppression lookup, plus the
// directives in source order (files as parsed, comments as written) —
// the deterministic order malformed-directive findings are emitted in.
func parseDirectives(pkg *Package, known map[string]bool) (map[string]map[int]*allowDirective, []*allowDirective) {
	out := map[string]map[int]*allowDirective{}
	var ordered []*allowDirective
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+directivePrefix)
				if !ok {
					continue
				}
				d := &allowDirective{pos: c.Pos()}
				fields := strings.Fields(text)
				switch {
				case len(fields) == 0:
					d.bad = "missing analyzer name and reason"
				case len(fields) == 1:
					d.analyzer = fields[0]
					d.bad = "missing reason — say why the invariant does not apply here"
				default:
					d.analyzer = fields[0]
					d.reason = strings.Join(fields[1:], " ")
				}
				if d.bad == "" && !known[d.analyzer] {
					d.bad = "unknown analyzer " + quote(d.analyzer)
				}
				p := pkg.Fset.Position(c.Pos())
				byLine := out[p.Filename]
				if byLine == nil {
					byLine = map[int]*allowDirective{}
					out[p.Filename] = byLine
				}
				byLine[p.Line] = d
				ordered = append(ordered, d)
			}
		}
	}
	return out, ordered
}

// quote wraps a directive token for an error message.
func quote(s string) string { return "\"" + s + "\"" }

// applySuppressions filters diags through the package's //ncsw:allow
// directives: a finding on the directive's line or the line below it
// is dropped. Malformed directives are converted into findings of
// their own (attributed to the "ncsw-vet" driver), so a typoed or
// reasonless suppression cannot silently disable a gate. So is a
// stale one: a well-formed directive whose analyzer ran (named in
// ran) and found nothing for it to suppress.
func applySuppressions(pkg *Package, diags []Diagnostic, ran map[string]bool) []Diagnostic {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	dirs, ordered := parseDirectives(pkg, known)
	var out []Diagnostic
	for _, d := range diags {
		p := pkg.Fset.Position(d.Pos)
		if byLine := dirs[p.Filename]; byLine != nil {
			if dir := suppressorFor(byLine, p.Line, d.Analyzer); dir != nil {
				dir.used = true
				continue
			}
		}
		out = append(out, d)
	}
	for _, dir := range ordered {
		msg := ""
		switch {
		case dir.bad != "":
			msg = "malformed //" + directivePrefix + " directive: " + dir.bad
		case ran[dir.analyzer] && !dir.used:
			msg = "stale //" + directivePrefix + " " + dir.analyzer + " directive: it suppresses no finding — delete it"
		}
		if msg != "" {
			out = append(out, Diagnostic{Pos: dir.pos, Analyzer: "ncsw-vet", Message: msg})
		}
	}
	return out
}

// suppressorFor returns the directive covering a finding by analyzer
// name on the given line: same line (trailing comment) or the line
// above (standalone comment). Malformed directives never suppress.
func suppressorFor(byLine map[int]*allowDirective, line int, analyzer string) *allowDirective {
	for _, l := range [2]int{line, line - 1} {
		if dir := byLine[l]; dir != nil && dir.bad == "" && dir.analyzer == analyzer {
			return dir
		}
	}
	return nil
}
