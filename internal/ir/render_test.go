package ir

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// oracleInstrString is the fmt renderer Instr.String replaced, kept as
// the reference its byte-for-byte output is checked against.
func oracleInstrString(i Instr) string {
	switch i.Op {
	case Nop, Ret:
		return i.Op.String()
	case MovI, AddI, SubI, MulI, CmpI:
		return fmt.Sprintf("%-5s r%d, %d", i.Op, i.A, i.B)
	case MovR, AddR, SubR, XorR, CmpR:
		return fmt.Sprintf("%-5s r%d, r%d", i.Op, i.A, i.B)
	case Load:
		return fmt.Sprintf("%-5s r%d, [%d]", i.Op, i.A, i.B)
	case Store:
		return fmt.Sprintf("%-5s [%d], r%d", i.Op, i.A, i.B)
	case Jmp, Jeq, Jne, Jlt, Jle, Jgt, Jge:
		return fmt.Sprintf("%-5s @%d", i.Op, i.A)
	case Sys:
		return fmt.Sprintf("%-5s %d", i.Op, i.A)
	default:
		return fmt.Sprintf("%-5s %d, %d", i.Op, i.A, i.B)
	}
}

// oracleProgramString is the fmt renderer Program.String replaced.
func oracleProgramString(p *Program) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "; %s (%d instructions)\n", p.Name, len(p.Code))
	for i, ins := range p.Code {
		fmt.Fprintf(&sb, "%4d: %s\n", i, oracleInstrString(ins))
	}
	return sb.String()
}

// renderOperands are the operand values every opcode is rendered with:
// zero, small and negative values, indices of four digits and more, and
// both ends of int32.
var renderOperands = []int32{0, 1, 7, -1, -42, 255, 1000, 9999, 12345, -100000, math.MaxInt32, math.MinInt32}

// TestInstrStringMatchesFmt pins the strconv renderer to the fmt one on
// every opcode, the unknown ones included (0, opEnd and 255 take the
// op(N) fallback), with every pair of extreme operands.
func TestInstrStringMatchesFmt(t *testing.T) {
	ops := []Op{0, opEnd, opEnd + 1, 255}
	for op := Nop; op < opEnd; op++ {
		ops = append(ops, op)
	}
	for _, op := range ops {
		for _, a := range renderOperands {
			for _, b := range renderOperands {
				ins := Instr{Op: op, A: a, B: b}
				if got, want := ins.String(), oracleInstrString(ins); got != want {
					t.Fatalf("%#v: got %q, want %q", ins, got, want)
				}
			}
		}
	}
}

// TestProgramStringMatchesFmt pins Program.String to the fmt renderer,
// including the index column past four digits and an empty name.
func TestProgramStringMatchesFmt(t *testing.T) {
	for _, name := range []string{"", "main", "sym.main (spliced)"} {
		p := &Program{Name: name}
		for i := 0; i < 10050; i++ {
			p.Code = append(p.Code, Instr{Op: Op(1 + i%int(opEnd)), A: renderOperands[i%len(renderOperands)], B: int32(-i)})
		}
		for _, n := range []int{0, 1, 9, 10, 100, 1000, 10000, len(p.Code)} {
			q := &Program{Name: p.Name, Code: p.Code[:n]}
			if got, want := q.String(), oracleProgramString(q); got != want {
				t.Fatalf("name %q, %d instructions: renderers differ", name, n)
			}
		}
	}
}

// FuzzRenderRoundTrip renders a program built from fuzz bytes and parses
// it back: every valid program must survive String then Parse unchanged,
// and its rendering must equal the fmt renderer's.
func FuzzRenderRoundTrip(f *testing.F) {
	f.Add([]byte{1, 0, 0, 2, 3, 200, 22, 0, 0})
	f.Add([]byte{12, 1, 128, 17, 0, 0, 14, 2, 0, 22, 0, 0, 21, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := &Program{Name: "fuzz"}
		for k := 0; k+3 <= len(data); k += 3 {
			op := Op(1 + int(data[k])%int(opEnd-1))
			a, b := int32(data[k+1]%NumRegs), int32(int8(data[k+2]))
			switch op {
			case Load, Store:
				b = int32(data[k+2]) % MemSize
				if op == Store {
					a, b = b, a
				}
			case MovR, AddR, SubR, XorR, CmpR:
				b = int32(data[k+2] % NumRegs)
			case Jmp, Jeq, Jne, Jlt, Jle, Jgt, Jge:
				a, b = int32(data[k+1])%int32(len(data)/3+1), 0
			case Sys:
				a, b = int32(data[k+1]), 0
			case Nop, Ret:
				a, b = 0, 0 // no operands to render
			}
			p.Code = append(p.Code, Instr{Op: op, A: a, B: b})
		}
		p.Code = append(p.Code, Instr{Op: Ret})
		text := p.String()
		if want := oracleProgramString(p); text != want {
			t.Fatalf("renderers differ:\n%s\nwant\n%s", text, want)
		}
		if p.Validate() != nil {
			return
		}
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("rendered program does not parse: %v\n%s", err, text)
		}
		if len(back.Code) != len(p.Code) {
			t.Fatalf("round trip changed length: %d -> %d", len(p.Code), len(back.Code))
		}
		for i := range p.Code {
			if back.Code[i] != p.Code[i] {
				t.Fatalf("instruction %d: %v -> %v", i, p.Code[i], back.Code[i])
			}
		}
	})
}

// BenchmarkProgramString is the cost of rendering a program per
// instruction.
func BenchmarkProgramString(b *testing.B) {
	p := &Program{Name: "bench"}
	for i := 0; i < 512; i++ {
		p.Code = append(p.Code, Instr{Op: Op(1 + i%int(opEnd-1)), A: int32(i % 8), B: int32(i*37 - 900)})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.String()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(p.Code)), "ns/instr")
}
