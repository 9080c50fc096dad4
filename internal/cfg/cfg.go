// Package cfg builds intra-routine control-flow graphs from guest binary
// code.  The paper's related-work section describes this as the first
// step of every static WCET analyser ("First, the Control-Flow Graph is
// constructed"); here it powers the instrumentation engine's
// trace-granularity (basic-block) hooks and a DOT export for inspection.
//
// The guest ISA makes routine-local CFGs fully static: branch and jump
// targets are immediate-relative and returns terminate a block with no
// local successor.  Following Pin's trace semantics, calls and syscalls
// also terminate blocks (with a fall-through successor): an entered
// block therefore executes to completion, which is what makes
// basic-block instruction counting exact.
package cfg

import (
	"fmt"
	"sort"
	"strings"

	"tquad/internal/isa"
)

// Block is one basic block: a maximal single-entry straight-line run.
type Block struct {
	Start  uint64      // address of the first instruction
	End    uint64      // exclusive end address
	Instrs []isa.Instr // decoded body
	Succs  []uint64    // start addresses of successor blocks (within the routine)
}

// NumInstrs returns the block length in instructions.
func (b *Block) NumInstrs() int { return len(b.Instrs) }

// Last returns the block's terminating instruction.
func (b *Block) Last() isa.Instr { return b.Instrs[len(b.Instrs)-1] }

// Graph is a routine's control-flow graph.
type Graph struct {
	Entry  uint64
	Blocks map[uint64]*Block
}

// isControl reports whether the instruction ends a basic block.  Calls
// and syscalls end blocks (Pin-style): control leaves the routine, or —
// for an exit syscall — may never come back.
func isControl(op isa.Op) bool {
	switch op {
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu,
		isa.OpJmp, isa.OpRet, isa.OpHalt,
		isa.OpCall, isa.OpCallr, isa.OpSyscall:
		return true
	}
	return false
}

// branchTarget mirrors the VM's relative-target computation.
func branchTarget(pc uint64, imm int32) uint64 {
	return pc + isa.InstrSize + uint64(int64(imm))*isa.InstrSize
}

// Build decodes the routine body [base, base+len(code)) and constructs
// its CFG.
func Build(code []byte, base uint64) (*Graph, error) {
	instrs, err := isa.Disassemble(code)
	if err != nil {
		return nil, fmt.Errorf("cfg: %w", err)
	}
	if len(instrs) == 0 {
		return nil, fmt.Errorf("cfg: empty routine")
	}
	end := base + uint64(len(code))
	inRange := func(pc uint64) bool { return pc >= base && pc < end }

	// Pass 1: leaders.
	leaders := map[uint64]bool{base: true}
	for i, ins := range instrs {
		pc := base + uint64(i)*isa.InstrSize
		switch ins.Op {
		case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu:
			if t := branchTarget(pc, ins.Imm); inRange(t) {
				leaders[t] = true
			}
			if next := pc + isa.InstrSize; inRange(next) {
				leaders[next] = true
			}
		case isa.OpJmp:
			if t := branchTarget(pc, ins.Imm); inRange(t) {
				leaders[t] = true
			}
			if next := pc + isa.InstrSize; inRange(next) {
				leaders[next] = true
			}
		case isa.OpRet, isa.OpHalt, isa.OpCall, isa.OpCallr, isa.OpSyscall:
			if next := pc + isa.InstrSize; inRange(next) {
				leaders[next] = true
			}
		}
	}

	// Pass 2: carve blocks between leaders / control transfers.
	g := &Graph{Entry: base, Blocks: make(map[uint64]*Block)}
	var starts []uint64
	for pc := range leaders {
		starts = append(starts, pc)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	for si, start := range starts {
		limit := end
		if si+1 < len(starts) {
			limit = starts[si+1]
		}
		blk := &Block{Start: start}
		pc := start
		for pc < limit {
			ins := instrs[(pc-base)/isa.InstrSize]
			blk.Instrs = append(blk.Instrs, ins)
			pc += isa.InstrSize
			if isControl(ins.Op) {
				break
			}
		}
		blk.End = pc
		last := blk.Last()
		lastPC := blk.End - isa.InstrSize
		switch last.Op {
		case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu:
			if t := branchTarget(lastPC, last.Imm); inRange(t) {
				blk.Succs = append(blk.Succs, t)
			}
			if inRange(pc) {
				blk.Succs = append(blk.Succs, pc)
			}
		case isa.OpJmp:
			if t := branchTarget(lastPC, last.Imm); inRange(t) {
				blk.Succs = append(blk.Succs, t)
			}
		case isa.OpRet, isa.OpHalt:
			// no local successors
		case isa.OpCall, isa.OpCallr, isa.OpSyscall:
			// Control leaves and (usually) falls back in.
			if inRange(pc) {
				blk.Succs = append(blk.Succs, pc)
			}
		default:
			// Fell into the next leader.
			if inRange(pc) {
				blk.Succs = append(blk.Succs, pc)
			}
		}
		g.Blocks[start] = blk
	}
	return g, nil
}

// Starts returns the block start addresses in ascending order.
func (g *Graph) Starts() []uint64 {
	out := make([]uint64, 0, len(g.Blocks))
	for pc := range g.Blocks {
		out = append(out, pc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Validate checks structural invariants: blocks tile the routine without
// overlap, and every successor is a block start.
func (g *Graph) Validate() error {
	starts := g.Starts()
	var prevEnd uint64
	for i, s := range starts {
		b := g.Blocks[s]
		if b.Start != s {
			return fmt.Errorf("cfg: block key %#x != start %#x", s, b.Start)
		}
		if len(b.Instrs) == 0 {
			return fmt.Errorf("cfg: empty block at %#x", s)
		}
		if i > 0 && b.Start != prevEnd {
			return fmt.Errorf("cfg: gap/overlap at %#x (previous ends %#x)", b.Start, prevEnd)
		}
		prevEnd = b.End
		for _, succ := range b.Succs {
			if _, ok := g.Blocks[succ]; !ok {
				return fmt.Errorf("cfg: block %#x has dangling successor %#x", s, succ)
			}
		}
	}
	return nil
}

// DOT renders the graph for Graphviz.
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  node [shape=box, fontname=\"monospace\"];\n", name)
	for _, s := range g.Starts() {
		blk := g.Blocks[s]
		fmt.Fprintf(&b, "  \"%#x\" [label=\"%#x (%d ins)\\n%s\"];\n",
			blk.Start, blk.Start, blk.NumInstrs(), blk.Last().Op)
		for _, succ := range blk.Succs {
			fmt.Fprintf(&b, "  \"%#x\" -> \"%#x\";\n", blk.Start, succ)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
