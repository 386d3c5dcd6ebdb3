package ir

import (
	"fmt"
	"strings"

	"advmal/internal/graph"
)

// Block is a basic block: the half-open instruction range [Start, End) of a
// straight-line run with a single entry at Start and a single exit at End-1.
type Block struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// Len returns the number of instructions in the block.
func (b Block) Len() int { return b.End - b.Start }

// CFG is the control flow graph recovered from a Program by Disassemble.
// Node i of G corresponds to Blocks[i]; Entry is always block 0 (the block
// containing instruction 0).
type CFG struct {
	Prog    *graph.Graph
	Blocks  []Block
	BlockOf []int // instruction index -> block index
}

// G returns the underlying directed graph.
func (c *CFG) G() *graph.Graph { return c.Prog }

// Disassemble recovers basic blocks and the control flow graph from the
// program's linear instruction stream, the role Radare2 plays in the paper:
// leaders are instruction 0, every jump target, and every instruction that
// follows a control transfer; edges are branch targets plus fallthrough.
// Ret blocks have no successors. The program must validate.
func Disassemble(p *Program) (*CFG, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("ir: disassemble: %w", err)
	}
	n := len(p.Code)
	leader := make([]bool, n)
	leader[0] = true
	for idx, ins := range p.Code {
		if ins.Op.IsJump() {
			leader[ins.A] = true
			if idx+1 < n {
				leader[idx+1] = true
			}
		}
		if ins.Op == Ret && idx+1 < n {
			leader[idx+1] = true
		}
	}
	// Materialize blocks in address order: each leader opens a block and
	// closes the one before it.
	nBlocks := 0
	for _, isL := range leader {
		if isL {
			nBlocks++
		}
	}
	blocks := make([]Block, 0, nBlocks)
	blockOf := make([]int, n)
	for idx, isL := range leader {
		if isL {
			if k := len(blocks); k > 0 {
				blocks[k-1].End = idx
			}
			blocks = append(blocks, Block{Start: idx, End: n})
		}
		blockOf[idx] = len(blocks) - 1
	}
	b := graph.NewBuilder(len(blocks)).AllowSelfLoops()
	for k, blk := range blocks {
		last := p.Code[blk.End-1]
		switch {
		case last.Op == Ret:
			// No successors.
		case last.Op == Jmp:
			if err := b.AddEdge(k, blockOf[last.A]); err != nil {
				return nil, err
			}
		case last.Op.IsCondJump():
			if err := b.AddEdge(k, blockOf[last.A]); err != nil {
				return nil, err
			}
			if blk.End < n {
				if err := b.AddEdge(k, blockOf[blk.End]); err != nil {
					return nil, err
				}
			}
		default:
			if blk.End < n {
				if err := b.AddEdge(k, blockOf[blk.End]); err != nil {
					return nil, err
				}
			}
		}
	}
	return &CFG{Prog: b.Build(), Blocks: blocks, BlockOf: blockOf}, nil
}

// BlockLabels renders each block's instructions for DOT output, reproducing
// the style of the paper's CFG figures.
func (c *CFG) BlockLabels(p *Program) []string {
	labels := make([]string, len(c.Blocks))
	for k, blk := range c.Blocks {
		var sb strings.Builder
		fmt.Fprintf(&sb, "0x%04x:\\l", blk.Start)
		for i := blk.Start; i < blk.End; i++ {
			sb.WriteString(p.Code[i].String())
			sb.WriteString("\\l")
		}
		labels[k] = sb.String()
	}
	return labels
}

// ExitBlocks returns the indices of blocks that end in Ret.
func (c *CFG) ExitBlocks(p *Program) []int {
	var exits []int
	for k, blk := range c.Blocks {
		if p.Code[blk.End-1].Op == Ret {
			exits = append(exits, k)
		}
	}
	return exits
}
