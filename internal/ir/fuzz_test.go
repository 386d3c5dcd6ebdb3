package ir

import (
	"errors"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// parseSeeds seeds both parser fuzzers.
var parseSeeds = []string{
	"movi r0, 1\nret",
	"; name\n 0: jmp   @1\n 1: ret\n",
	"cmpi r1, -3\njle @0\nret",
	"load r7, [255]\nstore [0], r7\nsys 13\nret",
	"garbage input !!!",
	"movi r0\nret",
}

// FuzzParse feeds arbitrary text to the assembly parser: it must never
// panic, and anything it accepts must validate, disassemble, and render
// back to parseable text.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		p, err := Parse(text)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Parse accepted a non-validating program: %v", err)
		}
		if _, err := Disassemble(p); err != nil {
			t.Fatalf("accepted program fails to disassemble: %v", err)
		}
		back, err := Parse(p.String())
		if err != nil {
			t.Fatalf("rendered program does not re-parse: %v", err)
		}
		if len(back.Code) != len(p.Code) {
			t.Fatalf("round trip changed length: %d -> %d", len(p.Code), len(back.Code))
		}
	})
}

// FuzzParseMatchesOracle checks Parse against the line-splitting parser
// it replaced: both accept and reject the same texts, an accepted text
// gives the same Program, and a rejection is ErrParse at the same line.
func FuzzParseMatchesOracle(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Add("; crlf\r\nmovi r0, 1\r\n0: ret\r\n")
	f.Add("movi\tr0,\t5\nadd\tr1,r0\nret\t")
	f.Add("movi   r0 ,   5\n  2  :  store [ 3 ], r0\n\n ret  ")
	f.Add("movi r0, 5,\nret")
	f.Add("jmp @1,\nret,\n")
	f.Add("movi\u00a0r0, 1\nmovi r0,\u20035\nret")
	f.Fuzz(func(t *testing.T, text string) {
		got, gotErr := Parse(text)
		want, wantErr := oracleParse(text)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("Parse error %v, oracle error %v", gotErr, wantErr)
		}
		if gotErr != nil {
			if !errors.Is(gotErr, ErrParse) {
				t.Fatalf("Parse error %v does not wrap ErrParse", gotErr)
			}
			if g, w := errLine(gotErr), errLine(wantErr); g != w {
				t.Fatalf("Parse rejects at line %d (%v), oracle at line %d (%v)", g, gotErr, w, wantErr)
			}
			return
		}
		if got.Name != want.Name || !slices.Equal(got.Code, want.Code) {
			t.Fatalf("Parse = %q %v, oracle = %q %v", got.Name, got.Code, want.Name, want.Code)
		}
	})
}

// errLine is the line number a parse error names, or 0 when it names
// none (a size or validation failure).
func errLine(err error) int {
	rest, ok := strings.CutPrefix(err.Error(), ErrParse.Error()+": line ")
	if !ok {
		return 0
	}
	digits, _, _ := strings.Cut(rest, ":")
	n, _ := strconv.Atoi(digits)
	return n
}

// FuzzDisassemble feeds arbitrary instruction encodings: Disassemble
// must never panic and must reject what Validate rejects.
func FuzzDisassemble(f *testing.F) {
	f.Add([]byte{byte(MovI), 0, 5, byte(Ret), 0, 0})
	f.Add([]byte{byte(Jmp), 0, 0, byte(Ret), 0, 0})
	f.Add([]byte{99, 1, 2})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var p Program
		for i := 0; i+2 < len(raw); i += 3 {
			p.Code = append(p.Code, Instr{
				Op: Op(raw[i]),
				A:  int32(int8(raw[i+1])),
				B:  int32(int8(raw[i+2])),
			})
		}
		cfg, err := Disassemble(&p)
		if err != nil {
			return
		}
		// Accepted programs must have a complete block partition.
		covered := 0
		for _, blk := range cfg.Blocks {
			covered += blk.Len()
		}
		if covered != len(p.Code) {
			t.Fatalf("blocks cover %d of %d instructions", covered, len(p.Code))
		}
	})
}

// TestParseRoundTripRandomPrograms: property check that every randomly
// assembled valid program round-trips through text.
func TestParseRoundTripRandomPrograms(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewAsm("rt")
		n := 3 + rng.Intn(20)
		a.Label("start")
		for i := 0; i < n; i++ {
			switch rng.Intn(5) {
			case 0:
				a.Emit(MovI, int32(rng.Intn(NumRegs)), int32(rng.Intn(100)-50))
			case 1:
				a.Emit(AddR, int32(rng.Intn(NumRegs)), int32(rng.Intn(NumRegs)))
			case 2:
				a.Emit(CmpI, int32(rng.Intn(NumRegs)), int32(rng.Intn(16)))
				a.Jump(Jge, "end")
			case 3:
				a.Emit(Store, int32(rng.Intn(MemSize)), int32(rng.Intn(NumRegs)))
			case 4:
				a.Emit(Sys, int32(rng.Intn(16)))
			}
		}
		a.Label("end")
		a.Emit(Ret)
		p, err := a.Build()
		if err != nil {
			return false
		}
		back, err := Parse(p.String())
		if err != nil {
			return false
		}
		if len(back.Code) != len(p.Code) {
			return false
		}
		for i := range p.Code {
			if back.Code[i] != p.Code[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}
