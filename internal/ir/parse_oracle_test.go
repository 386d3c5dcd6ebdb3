package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// oracleParse is the line-splitting parser Parse replaced, kept
// verbatim as the differential oracle for FuzzParseMatchesOracle. It
// reads the textual assembly format emitted by Program.String back
// into a Program: an optional `; name` header line, then one instruction
// per line, each optionally prefixed with `index:`. Blank lines and
// `;` comments are skipped. Jump targets use `@index` absolute form.
func oracleParse(text string) (*Program, error) {
	p := &Program{Name: "parsed"}
	for lineNo, raw := range strings.Split(text, "\n") {
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
		ins, err := oracleParseInstr(line)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrParse, lineNo+1, err)
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

// mnemonics is the map lookup Parse's opcode switch replaced.
var mnemonics = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, name := range opNames {
		if name != "" {
			m[name] = Op(op)
		}
	}
	return m
}()

func oracleParseInstr(line string) (Instr, error) {
	fields := strings.Fields(line)
	op, ok := mnemonics[fields[0]]
	if !ok {
		return Instr{}, fmt.Errorf("unknown mnemonic %q", fields[0])
	}
	operands := strings.Join(fields[1:], " ")
	parts := oracleSplitOperands(operands)
	ins := Instr{Op: op}
	need := operandCount(op)
	if len(parts) != need {
		return Instr{}, fmt.Errorf("%s takes %d operands, got %d", op, need, len(parts))
	}
	for i, part := range parts {
		v, err := oracleParseOperand(part)
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

func oracleSplitOperands(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func oracleParseOperand(s string) (int32, error) {
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
