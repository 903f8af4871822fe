// Package loopir defines a small loop-nest intermediate representation for
// Fortran-style numerical kernels: perfectly or imperfectly nested DO loops
// whose bodies reference multi-dimensional arrays through affine (or
// indirect) subscripts, plus opaque CALL statements.
//
// It plays the role of the source programs the paper instrumented with
// Sage++ (§3.1): the locality analyser (package locality) derives the
// temporal/spatial tags from the subscript structure exactly as the paper's
// §2.3 rules prescribe, and the trace generator (package tracegen) executes
// the nest to produce the tagged reference trace.
package loopir

import (
	"fmt"
	"sort"
	"strings"
)

// Term is one affine component Coef*Var of a subscript.
type Term struct {
	Var  string
	Coef int
}

// Indirect is a subscript component whose value is loaded from an integer
// data array: Data[Sub]. Indirect subscripts model sparse codes
// (X(Index(j2)) in the paper's §4.1 SpMV loop); their locality cannot be
// analysed, only asserted through user directives.
type Indirect struct {
	// Array names an integer data array registered in Program.Data.
	Array string
	// Sub indexes that array; it must itself be affine (no nested
	// indirection).
	Sub Subscript
}

// Subscript is an integer expression Const + Σ Coef_i*Var_i [+ Data[Sub]].
// The zero value is the constant 0.
type Subscript struct {
	Terms []Term
	Const int
	Ind   *Indirect
}

// V returns the subscript consisting of the single variable v.
func V(v string) Subscript { return Subscript{Terms: []Term{{Var: v, Coef: 1}}} }

// C returns the constant subscript k.
func C(k int) Subscript { return Subscript{Const: k} }

// SV returns the scaled-variable subscript coef*v.
func SV(coef int, v string) Subscript { return Subscript{Terms: []Term{{Var: v, Coef: coef}}} }

// Plus returns s + k.
func Plus(s Subscript, k int) Subscript {
	out := s.clone()
	out.Const += k
	return out
}

// Sum returns a + b. At most one operand may carry an indirect component.
func Sum(a, b Subscript) Subscript {
	if a.Ind != nil && b.Ind != nil {
		panic("loopir: Sum of two indirect subscripts")
	}
	out := a.clone()
	out.Const += b.Const
	for _, t := range b.Terms {
		out = out.addTerm(t)
	}
	if b.Ind != nil {
		ind := *b.Ind
		out.Ind = &ind
	}
	return out
}

// Load returns the indirect subscript data[sub].
func Load(array string, sub Subscript) Subscript {
	return Subscript{Ind: &Indirect{Array: array, Sub: sub}}
}

func (s Subscript) clone() Subscript {
	out := Subscript{Const: s.Const}
	out.Terms = append([]Term(nil), s.Terms...)
	if s.Ind != nil {
		ind := *s.Ind
		out.Ind = &ind
	}
	return out
}

func (s Subscript) addTerm(t Term) Subscript {
	if t.Coef == 0 {
		return s
	}
	for i := range s.Terms {
		if s.Terms[i].Var == t.Var {
			s.Terms[i].Coef += t.Coef
			if s.Terms[i].Coef == 0 {
				s.Terms = append(s.Terms[:i], s.Terms[i+1:]...)
			}
			return s
		}
	}
	s.Terms = append(s.Terms, t)
	return s
}

// Coef returns the coefficient of variable v (0 if absent from the affine
// part).
func (s Subscript) Coef(v string) int {
	for _, t := range s.Terms {
		if t.Var == v {
			return t.Coef
		}
	}
	return 0
}

// Uses reports whether v appears anywhere in the subscript, including
// inside an indirect index.
func (s Subscript) Uses(v string) bool {
	if s.Coef(v) != 0 {
		return true
	}
	if s.Ind != nil {
		return s.Ind.Sub.Uses(v)
	}
	return false
}

// HasIndirect reports whether the subscript contains an indirect component.
func (s Subscript) HasIndirect() bool { return s.Ind != nil }

// normTerms returns the terms sorted by variable name with zero coefficients
// dropped; used to compare subscripts for uniform generation.
func (s Subscript) normTerms() []Term {
	out := make([]Term, 0, len(s.Terms))
	for _, t := range s.Terms {
		if t.Coef != 0 {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Var < out[j].Var })
	return out
}

func (s Subscript) String() string {
	var parts []string
	for _, t := range s.normTerms() {
		switch t.Coef {
		case 1:
			parts = append(parts, t.Var)
		case -1:
			parts = append(parts, "-"+t.Var)
		default:
			parts = append(parts, fmt.Sprintf("%d*%s", t.Coef, t.Var))
		}
	}
	if s.Ind != nil {
		parts = append(parts, fmt.Sprintf("%s[%s]", s.Ind.Array, s.Ind.Sub))
	}
	if s.Const != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%d", s.Const))
	}
	return strings.Join(parts, "+")
}
