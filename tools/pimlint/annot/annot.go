// Package annot indexes the pimlint suppression annotations.
//
// Every escape hatch is the same convention: a //pimlint:<marker>
// comment on the flagged line or the line above covers it. One Index
// records every marker of every file in one scan; which marker an
// analyzer honours, and whether that marker must carry a justification
// (an audited claim, where a bare marker is itself a finding), is
// declared on the analysis.Analyzer and enforced by the driver, which
// also reports a marker that no analyzer reads.
package annot

import (
	"go/ast"
	"go/token"
	"strings"
)

// Prefix starts every annotation; the marker is the lower-case word
// that follows it.
const Prefix = "pimlint:"

// Entry is one annotation occurrence.
type Entry struct {
	// Marker is the word after the prefix.
	Marker string
	// Pos is the comment's position, for reporting bare and stale
	// markers.
	Pos token.Pos
	// Justification is the text following the marker, trimmed of
	// punctuation; empty when the author gave no reason.
	Justification string
}

type site struct {
	marker, file string
	line         int
}

// Index holds every annotation of the files added to it.
type Index struct {
	fset  *token.FileSet
	sites map[site]Entry
}

// NewIndex returns an empty index over fset's files.
func NewIndex(fset *token.FileSet) *Index {
	return &Index{fset: fset, sites: make(map[site]Entry)}
}

// AddFile scans one file's comments. An annotation is indexed at the
// comment's last line, so both a trailing comment and a comment on the
// line above the flagged construct cover it (see At).
func (x *Index) AddFile(file *ast.File) {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			rest := c.Text
			for {
				_, after, ok := strings.Cut(rest, Prefix)
				if !ok {
					break
				}
				rest = strings.TrimLeft(after, "abcdefghijklmnopqrstuvwxyz")
				marker := after[:len(after)-len(rest)]
				if marker == "" {
					continue // prose mentioning the prefix, not an annotation
				}
				just := strings.TrimSuffix(strings.TrimSpace(rest), "*/")
				just = strings.TrimSpace(strings.TrimLeft(just, ":—–- \t"))
				posn := x.fset.Position(c.End())
				at := site{marker, posn.Filename, posn.Line}
				if _, dup := x.sites[at]; !dup {
					x.sites[at] = Entry{Marker: marker, Pos: c.Pos(), Justification: just}
				}
			}
		}
	}
}

// At returns the marker annotation covering pos: one on the same line
// or on the line directly above.
func (x *Index) At(marker string, pos token.Pos) (Entry, bool) {
	posn := x.fset.Position(pos)
	if e, ok := x.sites[site{marker, posn.Filename, posn.Line}]; ok {
		return e, true
	}
	e, ok := x.sites[site{marker, posn.Filename, posn.Line - 1}]
	return e, ok
}

// Covers reports whether pos carries the marker, justified or not.
func (x *Index) Covers(marker string, pos token.Pos) bool {
	_, ok := x.At(marker, pos)
	return ok
}

// Bare returns every occurrence of marker with an empty justification.
func (x *Index) Bare(marker string) []Entry {
	return x.filter(func(e Entry) bool { return e.Marker == marker && e.Justification == "" })
}

// Unread returns every annotation whose marker is not in read: a stale
// hatch, such as one a deleted analyzer left behind.
func (x *Index) Unread(read map[string]bool) []Entry {
	return x.filter(func(e Entry) bool { return !read[e.Marker] })
}

func (x *Index) filter(keep func(Entry) bool) []Entry {
	var out []Entry
	for _, e := range x.sites {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}
