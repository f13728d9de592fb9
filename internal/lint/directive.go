package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Lock modes, ordered by what they exclude. Room modes come from the
// engine's roomLock; "mu" is any sync.Mutex/RWMutex; "any" means "some
// recognized lock" without naming which.
const (
	modeUpdate    = "update"
	modeExclusive = "exclusive"
	modeMu        = "mu"
	modeAny       = "any"
)

func validRequireMode(m string) bool {
	switch m {
	case modeUpdate, modeExclusive, modeMu, modeAny:
		return true
	}
	return false
}

func validAcquireMode(m string) bool {
	switch m {
	case modeUpdate, modeExclusive, modeMu:
		return true
	}
	return false
}

// directive is one parsed //asv: comment.
type directive struct {
	name string // "locked", "acquires", "releases", "immutable", "handoff", "ignore-err", "allow"
	arg  string // the =value for locked/acquires/releases/allow
	text string // free-text tail (reason)
	pos  token.Position
}

// parseDirective splits a comment's text; ok is false for comments that
// are not //asv: directives at all. Malformed directives (unknown name,
// bad mode, missing reason) are reported by the caller as "directive"
// findings so a typo cannot silently disable a check.
func parseDirective(c *ast.Comment, pos token.Position) (d directive, ok bool, err error) {
	text := c.Text
	if !strings.HasPrefix(text, "//asv:") {
		return d, false, nil
	}
	body := strings.TrimPrefix(text, "//asv:")
	head, tail, _ := strings.Cut(body, " ")
	name, arg, hasArg := strings.Cut(head, "=")
	d = directive{name: name, arg: arg, text: strings.TrimSpace(tail), pos: pos}
	switch name {
	case "locked":
		if !hasArg || !validRequireMode(arg) {
			return d, true, fmt.Errorf("asv:locked needs =scan|update|exclusive|mu|any, got %q", body)
		}
	case "acquires", "releases":
		if !hasArg || !validAcquireMode(arg) {
			return d, true, fmt.Errorf("asv:%s needs =scan|update|exclusive|mu, got %q", name, body)
		}
	case "immutable":
		if hasArg {
			return d, true, fmt.Errorf("asv:immutable takes no =argument, got %q", body)
		}
	case "handoff", "ignore-err":
		if d.text == "" {
			return d, true, fmt.Errorf("asv:%s needs a reason, got %q", name, body)
		}
	case "allow":
		if !hasArg || arg == "" {
			return d, true, fmt.Errorf("asv:allow needs =<analyzer>, got %q", body)
		}
		if d.text == "" {
			return d, true, fmt.Errorf("asv:allow=%s needs a reason, got %q", arg, body)
		}
	default:
		return d, true, fmt.Errorf("unknown directive asv:%s", name)
	}
	return d, true, nil
}

// lineKey identifies a single source line for line-directive lookup.
func lineKey(file string, line int) string {
	return fmt.Sprintf("%s:%d", file, line)
}

// lineDirectives maps "file:line" to the directives attached to that
// line. A directive attaches to its own line (trailing comment) and to
// the line directly below (comment line above a statement).
type lineDirectives struct {
	handoff   map[string]bool
	ignoreErr map[string]bool
	allow     map[string]map[string]bool // line -> analyzer set
}

func newLineDirectives() *lineDirectives {
	return &lineDirectives{
		handoff:   make(map[string]bool),
		ignoreErr: make(map[string]bool),
		allow:     make(map[string]map[string]bool),
	}
}

func (ld *lineDirectives) add(d directive) {
	for _, line := range []int{d.pos.Line, d.pos.Line + 1} {
		key := lineKey(d.pos.Filename, line)
		switch d.name {
		case "handoff":
			ld.handoff[key] = true
		case "ignore-err":
			ld.ignoreErr[key] = true
		case "allow":
			if ld.allow[key] == nil {
				ld.allow[key] = make(map[string]bool)
			}
			ld.allow[key][d.arg] = true
		}
	}
}

func (ld *lineDirectives) handoffAt(pos token.Position) bool {
	return ld.handoff[lineKey(pos.Filename, pos.Line)]
}

func (ld *lineDirectives) ignoreErrAt(pos token.Position) bool {
	return ld.ignoreErr[lineKey(pos.Filename, pos.Line)]
}

func (ld *lineDirectives) allowed(analyzer string, pos token.Position) bool {
	return ld.allow[lineKey(pos.Filename, pos.Line)][analyzer]
}

// docDirectives extracts the //asv: directives from a declaration's doc
// comment group.
func docDirectives(fset *token.FileSet, doc *ast.CommentGroup, report func(directive, error)) []directive {
	if doc == nil {
		return nil
	}
	var out []directive
	for _, c := range doc.List {
		d, ok, err := parseDirective(c, fset.Position(c.Pos()))
		if !ok {
			continue
		}
		if err != nil {
			report(d, err)
			continue
		}
		out = append(out, d)
	}
	return out
}
