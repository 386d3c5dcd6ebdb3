package ir

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// ErrParse wraps assembly text parse failures.
var ErrParse = errors.New("ir: parse error")

// Parse reads the textual assembly format emitted by Program.String back
// into a Program: an optional `; name` header line, then one instruction
// per line, each optionally prefixed with `index:`. Blank lines and
// `;` comments are skipped. Jump targets use `@index` absolute form.
//
// Lines, mnemonics and operands are substrings of text, so parsing
// allocates the Program and its Code and nothing per line.
func Parse(text string) (*Program, error) {
	p := &Program{Name: "parsed", Code: make([]Instr, 0, min(strings.Count(text, "\n")+1, MaxProgramLen))}
	for lineNo := 1; text != ""; lineNo++ {
		var raw string
		raw, text, _ = strings.Cut(text, "\n")
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ";") {
			// Header comment: "; name (...)".
			if p.Name == "parsed" && len(p.Code) == 0 {
				rest := strings.TrimSpace(strings.TrimPrefix(line, ";"))
				if i := strings.IndexByte(rest, '('); i > 0 {
					rest = strings.TrimSpace(rest[:i])
				}
				if rest != "" {
					p.Name = rest
				}
			}
			continue
		}
		// Strip a leading "NN:" index prefix.
		if i := strings.IndexByte(line, ':'); i > 0 {
			if _, err := strconv.Atoi(strings.TrimSpace(line[:i])); err == nil {
				line = strings.TrimSpace(line[i+1:])
			}
		}
		if line == "" {
			continue
		}
		ins, err := parseInstr(line)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrParse, lineNo, err)
		}
		if len(p.Code) >= MaxProgramLen {
			// Fail fast rather than buffering an arbitrarily large input
			// only for Validate to reject it.
			return nil, fmt.Errorf("%w: %w (max %d instructions)", ErrParse, ErrTooLarge, MaxProgramLen)
		}
		p.Code = append(p.Code, ins)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrParse, err)
	}
	return p, nil
}

// opcode returns the opcode whose mnemonic is s. A switch on the length
// and the first bytes names the one candidate, and a compare with its
// entry in opNames decides, so a lookup hashes nothing.
func opcode(s string) (Op, bool) {
	op := opEnd
	switch len(s) {
	case 3:
		switch s[0] {
		case 'n':
			op = Nop
		case 'm':
			op = MovR
		case 'a':
			op = AddR
		case 'x':
			op = XorR
		case 'c':
			op = CmpR
		case 'r':
			op = Ret
		case 's':
			op = SubR
			if s[1] == 'y' {
				op = Sys
			}
		case 'j':
			switch s[1:] {
			case "mp":
				op = Jmp
			case "eq":
				op = Jeq
			case "ne":
				op = Jne
			case "lt":
				op = Jlt
			case "le":
				op = Jle
			case "gt":
				op = Jgt
			case "ge":
				op = Jge
			}
		}
	case 4:
		switch s[0] {
		case 'm':
			op = MovI
			if s[1] == 'u' {
				op = MulI
			}
		case 'a':
			op = AddI
		case 's':
			op = SubI
		case 'l':
			op = Load
		case 'c':
			op = CmpI
		}
	case 5:
		op = Store
	}
	return op, op < opEnd && opNames[op] == s
}

// parseInstr parses one trimmed, non-empty instruction line: a mnemonic,
// then comma-separated operands. An operand with whitespace inside it is
// rejected by parseOperand.
func parseInstr(line string) (Instr, error) {
	mnemonic, operands := line, ""
	if i := strings.IndexFunc(line, unicode.IsSpace); i >= 0 {
		mnemonic, operands = line[:i], strings.TrimSpace(line[i:])
	}
	op, ok := opcode(mnemonic)
	if !ok {
		return Instr{}, fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	ins := Instr{Op: op}
	need, got := operandCount(op), 0
	if operands != "" {
		got = strings.Count(operands, ",") + 1
	}
	if got != need {
		return Instr{}, fmt.Errorf("%s takes %d operands, got %d", op, need, got)
	}
	for i := 0; i < got; i++ {
		part, rest, _ := strings.Cut(operands, ",")
		operands = rest
		v, err := parseOperand(strings.TrimSpace(part))
		if err != nil {
			return Instr{}, err
		}
		if i == 0 {
			ins.A = v
		} else {
			ins.B = v
		}
	}
	return ins, nil
}

func operandCount(op Op) int {
	switch op {
	case Nop, Ret:
		return 0
	case Jmp, Jeq, Jne, Jlt, Jle, Jgt, Jge, Sys:
		return 1
	default:
		return 2
	}
}

func parseOperand(s string) (int32, error) {
	switch {
	case strings.HasPrefix(s, "r"):
		v, err := strconv.Atoi(s[1:])
		if err != nil {
			return 0, fmt.Errorf("bad register %q", s)
		}
		return int32(v), nil
	case strings.HasPrefix(s, "@"):
		v, err := strconv.Atoi(s[1:])
		if err != nil {
			return 0, fmt.Errorf("bad jump target %q", s)
		}
		return int32(v), nil
	case strings.HasPrefix(s, "[") && strings.HasSuffix(s, "]"):
		v, err := strconv.Atoi(s[1 : len(s)-1])
		if err != nil {
			return 0, fmt.Errorf("bad memory address %q", s)
		}
		return int32(v), nil
	default:
		v, err := strconv.Atoi(s)
		if err != nil {
			return 0, fmt.Errorf("bad immediate %q", s)
		}
		return int32(v), nil
	}
}
