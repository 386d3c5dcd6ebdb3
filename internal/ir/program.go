package ir

import (
	"errors"
	"fmt"
	"strconv"
)

// Validation errors.
var (
	// ErrEmptyProgram indicates a program with no instructions.
	ErrEmptyProgram = errors.New("ir: empty program")
	// ErrBadTarget indicates a jump target outside the program.
	ErrBadTarget = errors.New("ir: jump target out of range")
	// ErrBadOperand indicates a register or memory operand out of range.
	ErrBadOperand = errors.New("ir: operand out of range")
	// ErrNoRet indicates a program without any ret instruction.
	ErrNoRet = errors.New("ir: program has no ret")
	// ErrUnknownLabel indicates a reference to an undefined assembler label.
	ErrUnknownLabel = errors.New("ir: unknown label")
	// ErrTooLarge indicates a program over MaxProgramLen instructions.
	ErrTooLarge = errors.New("ir: program too large")
)

// MaxProgramLen bounds program size. Synthetic corpus samples and GEA
// merges stay far below this; the cap exists so hostile or corrupt
// assembly text cannot drive unbounded allocation downstream (CFG
// construction is O(n), feature extraction up to O(n^2)).
const MaxProgramLen = 1 << 16

// Program is a single-function program: a linear instruction stream with
// jump targets encoded as absolute instruction indices.
type Program struct {
	Name string  `json:"name"`
	Code []Instr `json:"code"`
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	return &Program{
		Name: p.Name,
		Code: append([]Instr(nil), p.Code...),
	}
}

// Validate checks structural well-formedness: non-empty, every opcode
// defined, every jump target in range, every register/memory operand in
// range, and at least one ret.
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return ErrEmptyProgram
	}
	if len(p.Code) > MaxProgramLen {
		return fmt.Errorf("%w: %d instructions (max %d)", ErrTooLarge, len(p.Code), MaxProgramLen)
	}
	hasRet := false
	for idx, ins := range p.Code {
		if !ins.Op.Valid() {
			return fmt.Errorf("ir: instruction %d: invalid opcode %d", idx, ins.Op)
		}
		switch ins.Op {
		case Ret:
			hasRet = true
		case MovI, AddI, SubI, MulI, CmpI:
			if ins.A < 0 || ins.A >= NumRegs {
				return fmt.Errorf("%w: instruction %d register r%d", ErrBadOperand, idx, ins.A)
			}
		case MovR, AddR, SubR, XorR, CmpR:
			if ins.A < 0 || ins.A >= NumRegs || ins.B < 0 || ins.B >= NumRegs {
				return fmt.Errorf("%w: instruction %d registers r%d,r%d", ErrBadOperand, idx, ins.A, ins.B)
			}
		case Load:
			if ins.A < 0 || ins.A >= NumRegs || ins.B < 0 || ins.B >= MemSize {
				return fmt.Errorf("%w: instruction %d load r%d,[%d]", ErrBadOperand, idx, ins.A, ins.B)
			}
		case Store:
			if ins.A < 0 || ins.A >= MemSize || ins.B < 0 || ins.B >= NumRegs {
				return fmt.Errorf("%w: instruction %d store [%d],r%d", ErrBadOperand, idx, ins.A, ins.B)
			}
		case Jmp, Jeq, Jne, Jlt, Jle, Jgt, Jge:
			if int(ins.A) < 0 || int(ins.A) >= len(p.Code) {
				return fmt.Errorf("%w: instruction %d target %d (len %d)", ErrBadTarget, idx, ins.A, len(p.Code))
			}
		}
	}
	if !hasRet {
		return ErrNoRet
	}
	return nil
}

// String renders the whole program as assembly, one instruction per line
// with its index.
func (p *Program) String() string {
	b := make([]byte, 0, len(p.Name)+32+24*len(p.Code))
	b = append(b, "; "...)
	b = append(b, p.Name...)
	b = append(b, " ("...)
	b = strconv.AppendInt(b, int64(len(p.Code)), 10)
	b = append(b, " instructions)\n"...)
	var num [20]byte
	for i, ins := range p.Code {
		d := strconv.AppendInt(num[:0], int64(i), 10)
		for n := len(d); n < 4; n++ {
			b = append(b, ' ')
		}
		b = append(b, d...)
		b = append(b, ": "...)
		b = ins.appendText(b)
		b = append(b, '\n')
	}
	return string(b)
}

// Asm assembles a program from symbolic instructions. Jump operands refer
// to labels defined with Label; everything else is emitted verbatim.
// The zero value is not usable; create with NewAsm.
type Asm struct {
	name   string
	code   []Instr
	labels map[string]int32
	fixups map[int]string // instruction index -> label
	err    error
}

// NewAsm returns an assembler for a program called name.
func NewAsm(name string) *Asm {
	return &Asm{
		name:   name,
		labels: make(map[string]int32),
		fixups: make(map[int]string),
	}
}

// Label defines label l at the current position. Redefinition is an error
// reported by Build.
func (a *Asm) Label(l string) *Asm {
	if _, dup := a.labels[l]; dup && a.err == nil {
		a.err = fmt.Errorf("ir: duplicate label %q", l)
	}
	a.labels[l] = int32(len(a.code))
	return a
}

// Emit appends a non-jump instruction.
func (a *Asm) Emit(op Op, operands ...int32) *Asm {
	ins := Instr{Op: op}
	if len(operands) > 0 {
		ins.A = operands[0]
	}
	if len(operands) > 1 {
		ins.B = operands[1]
	}
	a.code = append(a.code, ins)
	return a
}

// Jump appends a jump instruction targeting label l.
func (a *Asm) Jump(op Op, l string) *Asm {
	if !op.IsJump() && a.err == nil {
		a.err = fmt.Errorf("ir: %v is not a jump opcode", op)
	}
	a.fixups[len(a.code)] = l
	a.code = append(a.code, Instr{Op: op})
	return a
}

// Build resolves labels and returns the validated program.
func (a *Asm) Build() (*Program, error) {
	if a.err != nil {
		return nil, a.err
	}
	for idx, l := range a.fixups {
		target, ok := a.labels[l]
		if !ok {
			return nil, fmt.Errorf("%w: %q at instruction %d", ErrUnknownLabel, l, idx)
		}
		a.code[idx].A = target
	}
	p := &Program{Name: a.name, Code: a.code}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("ir: assembling %q: %w", a.name, err)
	}
	return p, nil
}
