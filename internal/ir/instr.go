// Package ir implements the executable program substrate that stands in for
// the paper's compiled IoT binaries. It provides a small register
// instruction set, an assembler with symbolic labels, a disassembler that
// recovers basic blocks and the control flow graph from the linear
// instruction stream (the role Radare2 plays in the paper), and an
// interpreter whose observable syscall trace is used to verify that GEA
// preserves program functionality.
//
// Programs model a single function (the paper extracts the CFG of sym.main),
// with 8 general-purpose registers, a comparison flag, and a small flat
// memory. Inputs arrive in r0..r3; observable behaviour is the sequence of
// Sys instructions executed together with their argument registers.
package ir

import "strconv"

// Op identifies an instruction opcode.
type Op uint8

// Instruction opcodes. Operand conventions (A, B are the two operand
// fields of Instr):
//
//	Nop            -
//	MovI  rd, imm  A=rd  B=imm
//	MovR  rd, rs   A=rd  B=rs
//	AddI  rd, imm  A=rd  B=imm
//	AddR  rd, rs   A=rd  B=rs
//	SubI  rd, imm  A=rd  B=imm
//	SubR  rd, rs   A=rd  B=rs
//	MulI  rd, imm  A=rd  B=imm
//	XorR  rd, rs   A=rd  B=rs
//	Load  rd, addr A=rd  B=addr (direct)
//	Store addr, rs A=addr B=rs
//	CmpI  ra, imm  A=ra  B=imm
//	CmpR  ra, rb   A=ra  B=rb
//	Jmp   target   A=instruction index
//	Jeq/Jne/Jlt/Jle/Jgt/Jge target (conditional on last Cmp)
//	Sys   id       A=syscall id (observable; consumes r0, r1)
//	Ret            -
const (
	Nop Op = iota + 1
	MovI
	MovR
	AddI
	AddR
	SubI
	SubR
	MulI
	XorR
	Load
	Store
	CmpI
	CmpR
	Jmp
	Jeq
	Jne
	Jlt
	Jle
	Jgt
	Jge
	Sys
	Ret

	opEnd // sentinel; keep last
)

var opNames = [opEnd]string{
	Nop: "nop", MovI: "movi", MovR: "mov", AddI: "addi", AddR: "add",
	SubI: "subi", SubR: "sub", MulI: "muli", XorR: "xor", Load: "load",
	Store: "store", CmpI: "cmpi", CmpR: "cmp", Jmp: "jmp", Jeq: "jeq",
	Jne: "jne", Jlt: "jlt", Jle: "jle", Jgt: "jgt", Jge: "jge",
	Sys: "sys", Ret: "ret",
}

// String returns the mnemonic for the opcode, or op(N) for an opcode
// outside the instruction set.
func (o Op) String() string {
	if o < opEnd && opNames[o] != "" {
		return opNames[o]
	}
	return "op(" + strconv.Itoa(int(o)) + ")"
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o >= Nop && o < opEnd }

// IsJump reports whether o transfers control to an explicit target.
func (o Op) IsJump() bool { return o >= Jmp && o <= Jge }

// IsCondJump reports whether o is a conditional jump (may fall through).
func (o Op) IsCondJump() bool { return o >= Jeq && o <= Jge }

// Terminates reports whether control never falls through past o.
func (o Op) Terminates() bool { return o == Ret || o == Jmp }

// NumRegs is the number of general-purpose registers (r0..r7).
const NumRegs = 8

// MemSize is the number of words of flat data memory.
const MemSize = 256

// Instr is a single instruction. Operand meaning depends on Op; see the
// opcode documentation.
type Instr struct {
	Op Op    `json:"op"`
	A  int32 `json:"a,omitempty"`
	B  int32 `json:"b,omitempty"`
}

// String renders the instruction in assembly-like syntax.
func (i Instr) String() string { return string(i.appendText(nil)) }

// appendText appends String's rendering of i to b: the mnemonic, padded
// to five columns when operands follow, then the operands.
func (i Instr) appendText(b []byte) []byte {
	name := i.Op.String()
	b = append(b, name...)
	if i.Op == Nop || i.Op == Ret {
		return b
	}
	for n := len(name); n < 5; n++ {
		b = append(b, ' ')
	}
	b = append(b, ' ')
	switch i.Op {
	case MovI, AddI, SubI, MulI, CmpI:
		b = appendReg(b, i.A)
		b = append(b, ", "...)
		return strconv.AppendInt(b, int64(i.B), 10)
	case MovR, AddR, SubR, XorR, CmpR:
		b = appendReg(b, i.A)
		b = append(b, ", "...)
		return appendReg(b, i.B)
	case Load:
		b = appendReg(b, i.A)
		b = append(b, ", ["...)
		b = strconv.AppendInt(b, int64(i.B), 10)
		return append(b, ']')
	case Store:
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(i.A), 10)
		b = append(b, "], "...)
		return appendReg(b, i.B)
	case Jmp, Jeq, Jne, Jlt, Jle, Jgt, Jge:
		b = append(b, '@')
		return strconv.AppendInt(b, int64(i.A), 10)
	case Sys:
		return strconv.AppendInt(b, int64(i.A), 10)
	default:
		b = strconv.AppendInt(b, int64(i.A), 10)
		b = append(b, ", "...)
		return strconv.AppendInt(b, int64(i.B), 10)
	}
}

func appendReg(b []byte, r int32) []byte {
	return strconv.AppendInt(append(b, 'r'), int64(r), 10)
}
