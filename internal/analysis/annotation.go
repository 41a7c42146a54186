package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// The //hetlb: annotation grammar. Annotations are ordinary line comments
// beginning with exactly "//hetlb:" (no space), followed by a verb and, for
// suppressions, a mandatory free-text reason:
//
//	//hetlb:noalloc
//	    Doc-comment marker: the function below must not allocate on its
//	    steady-state path. Consumed by the noalloc analyzer.
//
//	//hetlb:nondeterministic-ok <reason>
//	    Suppresses determinism-class diagnostics (determinism,
//	    rngdiscipline, statssafety) reported on the annotated line.
//
//	//hetlb:alloc-ok <reason>
//	    Suppresses noalloc diagnostics reported on the annotated line
//	    (amortized growth paths that reach a high-water mark).
//
//	//hetlb:frozen
//	    Field marker: the struct field on the governed line is frozen per
//	    epoch — worker goroutines read it without synchronization, so only
//	    coordinator-phase code may write it. Consumed by phasefreeze.
//
//	//hetlb:concurrency-ok <reason>
//	    Suppresses concurrency-class diagnostics (phasefreeze) reported on
//	    the annotated line — the escape hatch for writes whose safety
//	    argument lives outside the analyzable phase shape (e.g. a write
//	    ordered by a barrier between two fan-outs).
//
// A suppression or field-marker comment may trail the governed line or stand
// alone on the line directly above it. Unknown verbs, missing reasons and
// misplaced markers are themselves diagnostics: the annotation layer is
// checked, not trusted.
const (
	AnnotationPrefix = "//hetlb:"

	// VerbNoalloc marks a function for the noalloc analyzer.
	VerbNoalloc = "noalloc"
	// VerbNondeterministicOK suppresses determinism-class findings.
	VerbNondeterministicOK = "nondeterministic-ok"
	// VerbAllocOK suppresses noalloc findings.
	VerbAllocOK = "alloc-ok"
	// VerbFrozen marks an epoch-frozen field for the phasefreeze analyzer.
	VerbFrozen = "frozen"
	// VerbConcurrencyOK suppresses concurrency-class findings.
	VerbConcurrencyOK = "concurrency-ok"
)

// annotationChecker is the pseudo-analyzer name carried by diagnostics about
// the annotations themselves (unknown verb, missing reason, unused
// suppression). It is never suppressible.
const annotationChecker = "hetlbvet"

// suppressionScope lists which analyzers each suppression verb can silence.
var suppressionScope = map[string][]string{
	VerbNondeterministicOK: {"determinism", "rngdiscipline", "statssafety", "seedflow"},
	VerbAllocOK:            {"noalloc"},
	VerbConcurrencyOK:      {"phasefreeze"},
}

// Suppression is one parsed suppression comment.
type Suppression struct {
	Verb   string
	Reason string
	Pos    token.Pos
	// File and Line locate the code line the suppression governs: the
	// comment's own line if code shares it, otherwise the line below.
	File string
	Line int
	used bool
}

// Annotations is the parsed //hetlb: layer of one package.
type Annotations struct {
	suppressions []*Suppression
	// noallocLines records file:line of every //hetlb:noalloc comment so the
	// noalloc analyzer can cross-check placement (see MisplacedNoalloc).
	noalloc map[posKey]token.Pos
	// marks records field markers (frozen) by verb and governed line.
	// Unlike noalloc (a doc-comment marker matched to the function below),
	// field markers use suppression-style line governance: a trailing
	// comment governs its own line, a standalone one the line below — so a
	// mark sits directly on the struct field it names.
	marks map[string]map[posKey]token.Pos
}

type posKey struct {
	file string
	line int
}

// ParseAnnotations scans all comments of the files, returning the parsed
// annotation set plus diagnostics for malformed annotations (unknown verb,
// suppression without a reason).
func ParseAnnotations(fset *token.FileSet, files []*ast.File) (*Annotations, []Diagnostic) {
	ann := &Annotations{
		noalloc: make(map[posKey]token.Pos),
		marks:   make(map[string]map[posKey]token.Pos),
	}
	var diags []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, AnnotationPrefix) {
					continue
				}
				body := strings.TrimPrefix(c.Text, AnnotationPrefix)
				verb, reason, _ := strings.Cut(body, " ")
				reason = strings.TrimSpace(reason)
				pos := fset.Position(c.Pos())
				switch verb {
				case VerbNoalloc:
					if reason != "" {
						diags = append(diags, Diagnostic{
							Pos:      c.Pos(),
							Message:  fmt.Sprintf("//hetlb:%s takes no argument (got %q)", VerbNoalloc, reason),
							Analyzer: annotationChecker,
						})
						continue
					}
					ann.noalloc[posKey{pos.Filename, pos.Line}] = c.Pos()
				case VerbFrozen:
					if reason != "" {
						diags = append(diags, Diagnostic{
							Pos:      c.Pos(),
							Message:  fmt.Sprintf("//hetlb:%s takes no argument (got %q)", verb, reason),
							Analyzer: annotationChecker,
						})
						continue
					}
					line := pos.Line
					if standsAlone(fset, f, c) {
						line++
					}
					if ann.marks[verb] == nil {
						ann.marks[verb] = make(map[posKey]token.Pos)
					}
					ann.marks[verb][posKey{pos.Filename, line}] = c.Pos()
				case VerbNondeterministicOK, VerbAllocOK, VerbConcurrencyOK:
					if reason == "" {
						diags = append(diags, Diagnostic{
							Pos:      c.Pos(),
							Message:  fmt.Sprintf("suppression //hetlb:%s requires a reason", verb),
							Analyzer: annotationChecker,
						})
						continue
					}
					s := &Suppression{Verb: verb, Reason: reason, Pos: c.Pos(), File: pos.Filename, Line: pos.Line}
					// A comment alone on its line governs the next line; a
					// trailing comment governs its own line. "Alone" means no
					// code token precedes it: the comment group's position
					// equals the line's first non-blank content — detected by
					// comparing against the file's line start through the
					// token.File.
					if standsAlone(fset, f, c) {
						s.Line++
					}
					ann.suppressions = append(ann.suppressions, s)
				default:
					diags = append(diags, Diagnostic{
						Pos: c.Pos(),
						Message: fmt.Sprintf("unknown //hetlb: annotation %q (known: %s, %s, %s, %s, %s)",
							verb, VerbNoalloc, VerbFrozen, VerbNondeterministicOK, VerbAllocOK, VerbConcurrencyOK),
						Analyzer: annotationChecker,
					})
				}
			}
		}
	}
	return ann, diags
}

// standsAlone reports whether comment c is the first thing on its line: no
// code token ends on the same line before it. A trailing comment governs its
// own line; a standalone one governs the line below.
func standsAlone(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	cline := fset.Position(c.Pos()).Line
	alone := true
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !alone {
			return false
		}
		if n.Pos() >= c.Pos() {
			return false // entirely after the comment; skip subtree
		}
		if end := n.End(); end <= c.Pos() && fset.Position(end-1).Line == cline {
			alone = false // code before the comment ends on its line
			return false
		}
		return true // enclosing node: recurse into children
	})
	return alone
}

// IsNoalloc reports whether a //hetlb:noalloc comment sits at file:line (used
// by the noalloc analyzer to match doc comments to functions).
func (a *Annotations) IsNoalloc(file string, line int) bool {
	_, ok := a.noalloc[posKey{file, line}]
	return ok
}

// MarkPositions returns the comment position of every marker with the given
// verb, keyed by the governed file:line — the consuming analyzer checks each
// against the fields it actually found and reports markers that match no
// field (misplaced marks are findings, like misplaced noalloc).
func (a *Annotations) MarkPositions(verb string) map[token.Pos]bool {
	out := make(map[token.Pos]bool, len(a.marks[verb]))
	for _, p := range a.marks[verb] {
		out[p] = true
	}
	return out
}

// MarkAt returns the comment position of the marker governing file:line.
func (a *Annotations) MarkAt(verb, file string, line int) (token.Pos, bool) {
	p, ok := a.marks[verb][posKey{file, line}]
	return p, ok
}

// NoallocPositions returns the position of every //hetlb:noalloc comment.
func (a *Annotations) NoallocPositions() []token.Pos {
	out := make([]token.Pos, 0, len(a.noalloc))
	for _, p := range a.noalloc {
		out = append(out, p)
	}
	return out
}

// Apply filters diags through the suppression set: a diagnostic from a
// suppressible analyzer within a verb's scope, positioned on a suppressed
// line, is dropped (and the suppression marked used). Diagnostics from
// non-suppressible analyzers always survive.
func (a *Annotations) Apply(fset *token.FileSet, diags []Diagnostic, suppressible map[string]bool) []Diagnostic {
	kept := diags[:0:0]
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if s := a.match(d.Analyzer, pos.Filename, pos.Line); s != nil && suppressible[d.Analyzer] {
			s.used = true
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

// match returns the first suppression governing (file, line) whose verb scope
// includes the analyzer.
func (a *Annotations) match(analyzer, file string, line int) *Suppression {
	for _, s := range a.suppressions {
		if s.File != file || s.Line != line {
			continue
		}
		for _, scoped := range suppressionScope[s.Verb] {
			if scoped == analyzer {
				return s
			}
		}
	}
	return nil
}

// Unused returns a diagnostic for every suppression that silenced nothing.
// Only meaningful after Apply ran for the full analyzer suite: a suppression
// is "unused" when no analyzer in its scope found anything on its line, which
// means either the code was fixed (delete the comment) or the comment drifted
// away from the line it was written for.
func (a *Annotations) Unused() []Diagnostic {
	var out []Diagnostic
	for _, s := range a.suppressions {
		if !s.used {
			out = append(out, Diagnostic{
				Pos:      s.Pos,
				Message:  fmt.Sprintf("unused suppression //hetlb:%s (no finding on the governed line; delete or re-anchor it)", s.Verb),
				Analyzer: annotationChecker,
			})
		}
	}
	return out
}
