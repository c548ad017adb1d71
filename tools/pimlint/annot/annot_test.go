package annot

import (
	"go/parser"
	"go/token"
	"sort"
	"testing"
)

// sorted puts entries in position order; Bare promises none.
func sorted(es []Entry) []Entry {
	sort.Slice(es, func(i, j int) bool { return es[i].Pos < es[j].Pos })
	return es
}

const src = `package p

//pimlint:lockorder — fsync under the lock is the durability contract
func a() {}

func b() { _ = 0 } //pimlint:lockorder

func c() {} // unrelated comment

//pimlint:detached
func d() {}
`

// index parses one source text and returns its annotation index plus
// a line -> token.Pos converter.
func index(t *testing.T, name, text string) (*Index, *token.FileSet, func(int) token.Pos) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, text, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	x := NewIndex(fset)
	x.AddFile(f)
	return x, fset, fset.File(f.Pos()).LineStart
}

func TestSet(t *testing.T) {
	s, fset, line := index(t, "x.go", src)
	const marker = "lockorder"

	// Annotation on the line above func a (line 4).
	e, ok := s.At(marker, line(4))
	if !ok {
		t.Fatalf("expected annotation covering line 4")
	}
	if want := "fsync under the lock is the durability contract"; e.Justification != want {
		t.Errorf("justification = %q, want %q", e.Justification, want)
	}

	// Trailing annotation on func b's own line (line 6), bare.
	e, ok = s.At(marker, line(6))
	if !ok {
		t.Fatalf("expected annotation covering line 6")
	}
	if e.Justification != "" {
		t.Errorf("justification = %q, want empty", e.Justification)
	}

	// Unrelated comment and a different marker do not cover.
	if s.Covers(marker, line(8)) {
		t.Errorf("line 8 should not be covered")
	}
	if s.Covers(marker, line(11)) {
		t.Errorf("pimlint:detached must not satisfy the lockorder marker")
	}
	// The same scan indexed the other marker under its own name.
	if !s.Covers("detached", line(11)) || len(s.Bare("detached")) != 1 {
		t.Errorf("pimlint:detached on line 10 not indexed as a bare detached marker")
	}

	bare := sorted(s.Bare(marker))
	if len(bare) != 1 {
		t.Fatalf("Bare() = %d entries, want 1", len(bare))
	}
	if posn := fset.Position(bare[0].Pos); posn.Line != 6 {
		t.Errorf("bare annotation at line %d, want 6", posn.Line)
	}
}

const nondetSrc = `package p

//pimlint:nondet — manifest provenance, excluded from digests
func a() {
	_ = 0
}

func b() {
	//pimlint:nondet
	_ = 1
}

func c() { _ = 2 } /*pimlint:nondet*/

//pimlint:nondet: colon separator also trims
func d() {}
`

// TestNondetScoping pins the pimlint:nondet contract: a justification
// is mandatory (a bare marker is itself a finding, and still
// suppresses nothing beyond its own lines), the annotation covers only
// its own line and the next, and both separator styles trim.
func TestNondetScoping(t *testing.T) {
	s, fset, line := index(t, "n.go", nondetSrc)
	const marker = "nondet"

	// The justified annotation covers its own line and the next, not
	// the rest of the function body.
	e, ok := s.At(marker, line(4))
	if !ok {
		t.Fatal("annotation above func a not found")
	}
	if want := "manifest provenance, excluded from digests"; e.Justification != want {
		t.Errorf("justification = %q, want %q", e.Justification, want)
	}
	if s.Covers(marker, line(5)) {
		t.Error("annotation must not leak past the line below it (line 5)")
	}

	// The bare marker inside func b still covers its lines — the
	// missing justification is reported separately via Bare().
	if !s.Covers(marker, line(10)) {
		t.Error("bare annotation should still cover the next line")
	}
	bare := sorted(s.Bare(marker))
	if len(bare) != 2 {
		t.Fatalf("Bare() = %d entries, want 2 (line comment + block comment)", len(bare))
	}
	if posn := fset.Position(bare[0].Pos); posn.Line != 9 {
		t.Errorf("first bare annotation at line %d, want 9", posn.Line)
	}
	if posn := fset.Position(bare[1].Pos); posn.Line != 13 {
		t.Errorf("second bare annotation at line %d, want 13", posn.Line)
	}

	// A colon separator trims the same way the em-dash does.
	e, ok = s.At(marker, line(16))
	if !ok {
		t.Fatal("annotation above func d not found")
	}
	if want := "colon separator also trims"; e.Justification != want {
		t.Errorf("justification = %q, want %q", e.Justification, want)
	}
}
