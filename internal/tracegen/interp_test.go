package tracegen_test

import (
	"fmt"
	"testing"

	"softcache/internal/locality"
	"softcache/internal/loopir"
	"softcache/internal/timing"
	"softcache/internal/trace"
	"softcache/internal/tracegen"
)

// interp is the reference generator TestGenerateMatchesInterpreter checks
// tracegen against: a tree walker over loopir with a map environment that
// evaluates every subscript term by term at every reference, in program
// order. It shares no compiled code with the generator; what they share is
// the specification: the record each reference emits, the gap drawn for
// it, the prefetch drop rule and the error texts.
type interp struct {
	p    *loopir.Program
	tags locality.Tagging
	env  map[string]int
	rng  *timing.RNG
	gaps *timing.GapModel
	max  int
	recs []trace.Record
}

// interpret runs p from scratch and returns the records it emits and the
// error that stopped it, if any.
func interpret(p *loopir.Program, opts tracegen.Options) ([]trace.Record, error) {
	if err := p.Finalize(); err != nil {
		return nil, err
	}
	tags, err := locality.Analyze(p)
	if err != nil {
		return nil, err
	}
	in := &interp{p: p, tags: tags, env: map[string]int{}, rng: timing.NewRNG(opts.Seed), gaps: opts.Gaps, max: opts.MaxRecords}
	if in.gaps == nil {
		in.gaps = timing.PaperGapModel()
	}
	if in.max == 0 {
		in.max = 64 << 20
	}
	err = in.run(p.Body)
	return in.recs, err
}

func (in *interp) value(s loopir.Subscript) (int, error) {
	v := s.Const
	for _, t := range s.Terms {
		v += t.Coef * in.env[t.Var]
	}
	if s.Ind == nil {
		return v, nil
	}
	i, err := in.value(s.Ind.Sub)
	if err != nil {
		return 0, err
	}
	data := in.p.Data[s.Ind.Array]
	if i < 0 || i >= len(data) {
		return 0, fmt.Errorf("tracegen: index %d out of range for data array %s (len %d)", i, s.Ind.Array, len(data))
	}
	return v + data[i], nil
}

func (in *interp) run(body []loopir.Stmt) error {
	for _, st := range body {
		switch s := st.(type) {
		case *loopir.Loop:
			lo, err := in.value(s.Lower)
			if err != nil {
				return err
			}
			hi, err := in.value(s.Upper)
			if err != nil {
				return err
			}
			step := s.Step
			if step == 0 {
				step = 1
			}
			for i := lo; i <= hi; i += step {
				in.env[s.Var] = i
				if err := in.run(s.Body); err != nil {
					return err
				}
			}
		case *loopir.Access:
			if err := in.reference(s.Array, s.Index, s.ID, false, s.Write); err != nil {
				return err
			}
		case *loopir.Prefetch:
			if err := in.reference(s.Array, s.Index, 0, true, false); err != nil {
				return err
			}
		case *loopir.Call:
		default:
			return fmt.Errorf("interp: unknown statement %T", st)
		}
	}
	return nil
}

// reference emits one access (id > 0) or prefetch. An out-of-range
// subscript fails an access and drops a prefetch.
func (in *interp) reference(array string, index []loopir.Subscript, id int, prefetch, write bool) error {
	arr := in.p.Arrays[array]
	strides := arr.Strides()
	idx := 0
	for d, sub := range index {
		v, err := in.value(sub)
		if err != nil {
			return err
		}
		if v < 0 || v >= arr.Dims[d] {
			if prefetch {
				return nil
			}
			return fmt.Errorf("tracegen: subscript %d out of range [0,%d) in dim %d of %s (ref %d)", v, arr.Dims[d], d, array, id)
		}
		idx += v * strides[d]
	}
	r := trace.Record{Addr: arr.Base + uint64(idx*arr.ElemSize), Size: uint8(arr.ElemSize), SoftwarePrefetch: prefetch}
	if !prefetch {
		t := in.tags[id]
		r.RefID, r.Write, r.Temporal, r.Spatial = uint32(id), write, t.Temporal, t.Spatial
		if t.Spatial {
			r.VirtualHint = trace.EncodeVirtualHint(t.VirtualBytes)
		}
	}
	if len(in.recs) >= in.max {
		return fmt.Errorf("tracegen: trace exceeds MaxRecords=%d (workload mis-sized?)", in.max)
	}
	r.Gap = uint8(in.gaps.Sample(in.rng))
	if len(in.recs) == 0 {
		r.Gap = 0
	}
	in.recs = append(in.recs, r)
	return nil
}

// program is one TestGenerateMatchesInterpreter case.
type program struct {
	name  string
	build func() (*loopir.Program, error)
	opts  tracegen.Options
}

// sub is Const + Σ coef*var over the (var, coef) pairs, kept as given:
// repeated and zero coefficients included.
func sub(c int, terms ...any) loopir.Subscript {
	s := loopir.Subscript{Const: c}
	for i := 0; i < len(terms); i += 2 {
		s.Terms = append(s.Terms, loopir.Term{Var: terms[i].(string), Coef: terms[i+1].(int)})
	}
	return s
}

// edgePrograms are hand-built loops at the edges of the strided form:
// steps, coefficient signs, a loop variable in two dimensions, zero-trip
// loops, calls, prefetches in range always, in part and never, demand
// accesses leaving their array at the first, a middle and the last
// iteration in either dimension, and MaxRecords inside a strided loop.
func edgePrograms() []program {
	var ps []program
	add := func(name string, max int, body func() []loopir.Stmt) {
		ps = append(ps, program{name: name, opts: tracegen.Options{Seed: 7, MaxRecords: max}, build: func() (*loopir.Program, error) {
			p := loopir.NewProgram(name)
			p.DeclareArray("X", 40)
			p.DeclareArray("Y", 40)
			p.DeclareArray("A", 6, 8)
			p.DeclareIndexArray("R", []int{0, 3, 3, 9, 12})
			p.Add(body()...)
			return p, nil
		}})
	}
	i, j := loopir.V("i"), loopir.V("j")
	add("step3", 0, func() []loopir.Stmt {
		return []loopir.Stmt{loopir.DoStep("i", loopir.C(1), loopir.C(20), 3,
			loopir.Read("X", i), loopir.Store("Y", sub(1, "i", 2)))}
	})
	add("step-past-upper", 0, func() []loopir.Stmt {
		return []loopir.Stmt{loopir.DoStep("i", loopir.C(0), loopir.C(38), 7,
			loopir.Read("X", sub(39, "i", -1)), loopir.PrefetchOf("Y", sub(3, "i", 1)))}
	})
	add("coefficients", 0, func() []loopir.Stmt {
		return []loopir.Stmt{loopir.Do("j", loopir.C(0), loopir.C(3),
			loopir.Do("i", loopir.C(0), loopir.C(9),
				loopir.Read("X", sub(30, "i", -3)),
				loopir.Read("Y", sub(5, "i", 0, "j", 2)),
				loopir.Store("X", sub(0, "i", 1, "i", 2)),
				loopir.Read("Y", j)))}
	})
	add("two-dims", 0, func() []loopir.Stmt {
		return []loopir.Stmt{loopir.Do("i", loopir.C(0), loopir.C(5),
			loopir.Read("A", i, i), loopir.Store("A", sub(5, "i", -1), sub(1, "i", 1)))}
	})
	add("zero-trip", 0, func() []loopir.Stmt {
		return []loopir.Stmt{
			loopir.Do("i", loopir.C(5), loopir.C(4), loopir.Read("X", sub(-100, "i", 1))),
			loopir.Do("j", loopir.C(0), loopir.C(3),
				loopir.Do("i", loopir.C(0), sub(-1, "j", 1), loopir.Read("X", i), loopir.PrefetchOf("Y", i)),
				loopir.Do("i", j, loopir.C(1), loopir.Store("Y", i)),
				loopir.Read("A", j, j)),
		}
	})
	add("call", 0, func() []loopir.Stmt {
		return []loopir.Stmt{loopir.Do("i", loopir.C(0), loopir.C(7),
			loopir.Read("X", i), &loopir.Call{Name: "F"}, loopir.Store("Y", i)),
			loopir.Do("i", loopir.C(0), loopir.C(2), &loopir.Call{Name: "G"})}
	})
	add("prefetch-in-range", 0, func() []loopir.Stmt {
		return []loopir.Stmt{loopir.Do("i", loopir.C(0), loopir.C(30),
			loopir.Read("X", i), loopir.PrefetchOf("Y", sub(9, "i", 1)), loopir.PrefetchOf("A", loopir.C(2), loopir.C(3)))}
	})
	add("prefetch-in-part", 0, func() []loopir.Stmt {
		return []loopir.Stmt{loopir.Do("i", loopir.C(0), loopir.C(39),
			loopir.PrefetchOf("X", sub(-5, "i", 1)),
			loopir.Read("X", i),
			loopir.PrefetchOf("Y", sub(8, "i", 1)),
			loopir.PrefetchOf("Y", sub(20, "i", -2)),
			loopir.PrefetchOf("A", sub(0, "i", 1), sub(1, "i", 1)),
			loopir.PrefetchOf("A", loopir.C(0), sub(-3, "i", 1)))}
	})
	add("prefetch-never", 0, func() []loopir.Stmt {
		return []loopir.Stmt{loopir.Do("i", loopir.C(0), loopir.C(9),
			loopir.PrefetchOf("X", sub(100, "i", 1)), loopir.Read("X", i), loopir.PrefetchOf("A", loopir.C(6), i), loopir.PrefetchOf("Y", sub(-1, "i", -1)))}
	})
	for _, f := range []struct {
		name string
		idx  []loopir.Subscript
		from int
		to   int
	}{
		{"first/dim0", []loopir.Subscript{sub(-1, "i", 1), loopir.C(0)}, 0, 5},
		{"middle/dim0", []loopir.Subscript{i, loopir.C(2)}, 0, 9},
		{"last/dim0", []loopir.Subscript{sub(0, "i", 1), loopir.C(7)}, 1, 6},
		{"first/dim1", []loopir.Subscript{loopir.C(1), sub(8, "i", 1)}, 0, 5},
		{"middle/dim1", []loopir.Subscript{loopir.C(5), sub(7, "i", -2)}, 0, 9},
		{"last/dim1", []loopir.Subscript{i, sub(3, "i", 1)}, 0, 5},
		{"both-dims", []loopir.Subscript{sub(1, "i", 1), sub(3, "i", 1)}, 0, 5},
	} {
		add("demand-out/"+f.name, 0, func() []loopir.Stmt {
			return []loopir.Stmt{loopir.Do("j", loopir.C(0), loopir.C(1),
				loopir.Read("Y", j),
				loopir.Do("i", loopir.C(f.from), loopir.C(f.to),
					loopir.Read("X", i),
					loopir.PrefetchOf("Y", sub(f.to-1, "i", 1)),
					loopir.Read("A", f.idx...),
					loopir.Store("X", sub(1, "i", 1)),
					loopir.Read("Y", sub(1, "i", 1))))}
		})
	}
	add("demand-out/second-ref-first", 0, func() []loopir.Stmt {
		return []loopir.Stmt{loopir.Do("i", loopir.C(0), loopir.C(9),
			loopir.Read("X", sub(33, "i", 1)), loopir.Read("A", loopir.C(0), sub(4, "i", 1)))}
	})
	add("demand-out/tie", 0, func() []loopir.Stmt {
		return []loopir.Stmt{loopir.Do("i", loopir.C(0), loopir.C(9),
			loopir.PrefetchOf("A", i, i), loopir.Read("X", sub(35, "i", 1)), loopir.Read("Y", sub(35, "i", 1)))}
	})
	add("max-records", 37, func() []loopir.Stmt {
		return []loopir.Stmt{loopir.Do("j", loopir.C(0), loopir.C(5),
			loopir.Do("i", loopir.C(0), loopir.C(9), loopir.Read("X", i), loopir.PrefetchOf("Y", sub(35, "i", 1))))}
	})
	add("max-records-at-failure", 12, func() []loopir.Stmt {
		return []loopir.Stmt{loopir.Do("i", loopir.C(0), loopir.C(9),
			loopir.Read("X", i), loopir.Read("Y", i), loopir.Read("A", loopir.C(0), sub(2, "i", 1)))}
	})
	add("indirect-bounds", 0, func() []loopir.Stmt {
		return []loopir.Stmt{loopir.Do("j", loopir.C(0), loopir.C(3),
			loopir.Do("i", loopir.Load("R", j), loopir.Plus(loopir.Load("R", loopir.Plus(j, 1)), -1),
				loopir.Read("R", j), loopir.Read("X", i), loopir.PrefetchOf("X", sub(30, "i", 1))),
			loopir.Do("i", loopir.C(0), loopir.C(2), loopir.Read("X", loopir.Load("R", i)), loopir.Read("Y", i)))}
	})
	return ps
}

// TestGenerateMatchesInterpreter: Generate and the Reader emit exactly
// the interpreter's records, and fail with its error, on every figure
// variant and on edgePrograms.
func TestGenerateMatchesInterpreter(t *testing.T) {
	ps := edgePrograms()
	for _, v := range figureVariants() {
		ps = append(ps, program{name: v.name, build: v.build, opts: tracegen.Options{Seed: 1, Gaps: v.gaps}})
	}
	for _, pc := range ps {
		t.Run(pc.name, func(t *testing.T) {
			build := func() *loopir.Program {
				p, err := pc.build()
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			want, wantErr := interpret(build(), pc.opts)
			errText := func(err error) string {
				if err == nil {
					return "<nil>"
				}
				return err.Error()
			}
			tr, err := tracegen.Generate(build(), pc.opts)
			if errText(err) != errText(wantErr) {
				t.Fatalf("Generate error %s, want %s", errText(err), errText(wantErr))
			}
			if err == nil {
				sameRecords(t, "Generate", tr.Records, want)
			}
			r, err := tracegen.NewReader(build(), pc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if wantErr == nil && r.Len() != len(want) {
				t.Errorf("Reader.Len %d, want %d", r.Len(), len(want))
			}
			got, err := readAll(r, 777)
			if errText(err) != errText(wantErr) {
				t.Fatalf("Reader error %s, want %s", errText(err), errText(wantErr))
			}
			sameRecords(t, "Reader", got, want)
		})
	}
}

func sameRecords(t *testing.T, who string, got, want []trace.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", who, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d = %+v, want %+v", who, i, got[i], want[i])
		}
	}
}
