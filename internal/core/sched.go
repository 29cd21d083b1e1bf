package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/bpred"
	"repro/internal/collapse"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/trace"
)

// Run schedules the trace under cfg and params and returns the statistics.
//
// The scheduling model (DESIGN.md Section 5): instructions are visited in
// dynamic order; instruction i enters the window one cycle after the issue
// that freed its slot; it issues at the first cycle with a free issue slot
// at or after max(entry, misprediction barrier, operand readiness, memory
// dependence). A result issued at cycle t with latency L is readable by
// instructions issuing at cycle >= t+L.
//
// Run is a thin wrapper over RunChecked that discards the error for
// callers that control their trace end-to-end (in-memory buffers the VM
// just produced). Anything consuming external input — trace files, network
// streams — must use RunChecked: a truncated or corrupt source otherwise
// yields a plausible-but-wrong partial Result.
func Run(src trace.Source, cfg Config, params Params) *Result {
	res, _ := RunChecked(context.Background(), src, cfg, params)
	return res
}

// srcSnap is a snapshot of one source operand's defining instruction, taken
// when the consumer of that operand was scheduled. It carries enough to
// collapse through the producer one level deeper (its own sources'
// readiness) without chasing pointers into state that later instructions
// overwrite. Signatures travel as interned collapse.SigIDs, never strings,
// so snapshots stay pointer-free and copies stay cheap.
type srcSnap struct {
	seq      int64 // dynamic index of the producer; -1 for initial values
	issue    int64
	ready    int64 // cycle the produced value is readable
	srcReady int64 // max readiness of the producer's own leaf operands
	counts   collapse.Counts
	producer bool // producer's class is collapsible-through
	sig      collapse.SigID
	uses     int // times the consumer names this source register (Rb+Rb: 2)
}

// def is the current definition of an architectural register under ideal
// renaming: the youngest earlier writer.
type def struct {
	seq      int64
	issue    int64
	ready    int64
	srcReady int64
	counts   collapse.Counts
	producer bool
	sig      collapse.SigID
	srcs     [2]srcSnap
	nsrcs    int
}

// slotOption is one way to obtain a consumer operand: directly (producers
// empty) or by collapsing through up to three instructions.
type slotOption struct {
	ready     int64
	unit      collapse.Counts // per-use operand contribution when collapsed
	collapsed bool            // false: plain use of the produced value
	producers [3]srcSnap
	nprod     int
}

type sched struct {
	cfg Config
	p   Params
	res *Result

	brc  bpred.Predictor
	addr AddrPredictor
	vals ValuePredictor

	regs [isa.NumRegs]def

	// Window occupancy: a monotone bucket queue of in-window issue times.
	window windowQueue

	// Issue bandwidth accounting per cycle: a ring of per-cycle counts
	// sliding with the window entry frontier (bounded memory, no hashing).
	issue issueRing

	// Misprediction barrier: no later instruction may issue at or before
	// the mispredicted branch's issue cycle.
	barrier int64

	// Perfect memory disambiguation: word address -> cycle after the
	// latest prior store to it has issued.
	stores map[uint32]int64

	// Collapse participation ring bitmap (distinct-instruction counting).
	ring     []bool
	ringMask int64

	// Static decode cache, indexed by PC.
	infos []*pcInfo

	seq      int64
	maxIssue int64

	// valueHit marks the in-flight load whose value was predicted
	// correctly: its consumers see the value immediately. Reset inline at
	// the top of every visit (no per-visit defer on the hot path).
	valueHit bool

	// loadExtra is the in-flight load's cache-miss penalty in cycles.
	loadExtra int64

	// Collapse-signature frequency tables, keyed by packed interned-SigID
	// tuples. Materialized into Result.PairSigs/TripleSigs (string keys,
	// byte-identical to the old concatenations) once, in finish — the hot
	// loop never builds a string.
	pairIDs   map[uint32]int64
	tripleIDs map[uint64]int64

	// Scratch reused across visits, so the hot loop neither allocates nor
	// copies option and group structs by value: the per-slot collapse
	// options and the visiting consumer's chosen group.
	opts  [2][maxSlotOptions]slotOption
	group groupChoice

	// Sparse fallback for the static-analysis cache: PCs beyond
	// maxDenseInfos (possible only with corrupt or adversarial traces) go
	// through a map so a wild 32-bit PC cannot force a multi-gigabyte
	// dense-table allocation.
	infoMap map[uint32]*pcInfo

	// err carries a failure raised mid-visit (e.g. an injected cache
	// fault); RunChecked surfaces it after the visit completes.
	err error

	// Self-check state: the first window push below the queue's head (a
	// violation of the monotone-completion invariant).
	windowMono *InvariantError
}

// maxDenseInfos bounds the dense static-analysis cache; production traces
// have static program sizes in the thousands, so only corrupt input ever
// crosses it.
const maxDenseInfos = 1 << 22

func newSched(cfg Config, params Params) *sched {
	params = params.withDefaults()
	ringSize := int64(4 * params.WindowSize)
	if ringSize < 16 {
		ringSize = 16
	}
	ringSize = roundUpPow2(ringSize)
	s := &sched{
		cfg:       cfg,
		p:         params,
		res:       &Result{Config: cfg, Width: params.Width, Window: params.WindowSize},
		brc:       params.Branch,
		addr:      params.Addr,
		vals:      params.Value,
		window:    newWindowQueue(ringSize),
		issue:     newIssueRing(ringSize),
		stores:    make(map[uint32]int64, 1<<12),
		ring:      make([]bool, ringSize),
		ringMask:  ringSize - 1,
		pairIDs:   make(map[uint32]int64, 64),
		tripleIDs: make(map[uint64]int64, 64),
	}
	if cfg.PerfectBranches {
		s.brc = bpred.NewPerfect()
	}
	for i := range s.regs {
		s.regs[i] = def{seq: -1}
	}
	return s
}

// pcInfo is one static instruction decoded for the scheduler, once per
// PC: its collapse analysis plus every operand and class fact visit would
// otherwise re-derive from each dynamic record. A trace maps each PC to one
// static instruction (the predictors index their tables by PC on the same
// premise), so the first record at a PC decodes it for all later ones.
type pcInfo struct {
	collapse.Info

	// collapsing: the configuration collapses and the instruction is a
	// consumer, so its slot registers go through the group chooser.
	collapsing bool
	// slotRegs are the distinct collapsible operand registers in first-use
	// order; slotUses counts how often the instruction names each one
	// (Rb+Rb: 2).
	slotRegs [2]uint8
	slotUses [2]int
	nslots   int
	// plain are the registers read as plain dependences: every non-r0 read
	// the slot machinery does not handle. A store's data operand is always
	// one (only its address expression collapses).
	plain  [3]uint8
	nplain int

	write      int // destination register; -1 when none
	latency    int64
	load       bool
	store      bool
	condBranch bool
}

func (s *sched) info(pc uint32, in *isa.Instr) *pcInfo {
	if pc >= maxDenseInfos {
		if s.infoMap == nil {
			s.infoMap = make(map[uint32]*pcInfo)
		}
		if inf := s.infoMap[pc]; inf != nil {
			return inf
		}
		inf := s.decode(in)
		s.infoMap[pc] = inf
		return inf
	}
	for int(pc) >= len(s.infos) {
		s.infos = append(s.infos, nil)
	}
	if s.infos[pc] == nil {
		s.infos[pc] = s.decode(in)
	}
	return s.infos[pc]
}

func (s *sched) decode(in *isa.Instr) *pcInfo {
	inf := &pcInfo{
		Info:       collapse.Analyze(in),
		write:      in.Writes(),
		latency:    int64(isa.Latency(in.Op)),
		load:       in.Op == isa.Ld,
		store:      in.Op == isa.St,
		condBranch: in.IsCondBranch(),
	}
	if s.cfg.NoShiftCollapse && inf.Class == isa.ClassSh {
		inf.Producer = false
		inf.Consumer = false
	}
	inf.collapsing = s.cfg.Collapse && inf.Consumer
	for _, r := range inf.Slots {
		k := 0
		for k < inf.nslots && inf.slotRegs[k] != r {
			k++
		}
		if k == inf.nslots {
			inf.slotRegs[k] = r
			inf.nslots++
		}
		inf.slotUses[k]++
	}
	// in.Reads lists a store's data operand first, before the address
	// registers.
	var reads [3]uint8
	for i, r := range in.Reads(reads[:0]) {
		if r == isa.R0 {
			continue
		}
		storeData := inf.store && i == 0
		if inf.collapsing && !storeData && slices.Contains(inf.Slots, r) {
			continue // handled by the slot machinery
		}
		inf.plain[inf.nplain] = r
		inf.nplain++
	}
	return inf
}

// --- window ----------------------------------------------------------------

// windowPush enters an issued instruction into the window queue. Window
// slots must free in monotone non-decreasing cycle order: every push is at
// least the last popped cycle + 1, so one below the queue's head means the
// scheduler's state is corrupt. SelfCheck records the first such push.
func (s *sched) windowPush(v int64) {
	if s.p.SelfCheck && v < s.window.head && s.windowMono == nil {
		s.windowMono = &InvariantError{
			Invariant: "window-heap-monotone",
			Cycle:     s.maxIssue,
			Seq:       s.seq,
			Detail:    fmt.Sprintf("pushed cycle %d below the window head %d", v, s.window.head),
		}
	}
	s.window.push(v)
}

// slotted returns the first cycle >= t with spare issue bandwidth and
// consumes one slot there. Counts live in the sliding issue ring; every
// query is at or above the window entry frontier (the ring's base), so the
// probe is one mask and one compare per cycle — no map hashing.
func (s *sched) slotted(t int64) int64 {
	if t < 1 {
		t = 1
	}
	w := int32(s.p.Width)
	for {
		s.issue.ensure(t, s.maxIssue)
		idx := t & s.issue.mask
		if s.issue.counts[idx] < w {
			s.issue.counts[idx]++
			if t > s.maxIssue {
				s.maxIssue = t
			}
			return t
		}
		t++
	}
}

// --- per-instruction scheduling ------------------------------------------

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func (s *sched) visit(rec *trace.Record) {
	seq := s.seq
	s.seq++
	s.ring[seq&s.ringMask] = false
	s.res.Instructions++

	// Reset per-visit load state inline (the old per-instruction defer cost
	// a deferred call on every dynamic instruction).
	s.valueHit = false
	s.loadExtra = 0

	inf := s.info(rec.PC, &rec.Instr)

	// Window entry: the window is kept full; a slot frees one cycle after
	// the earliest in-window issue.
	entry := int64(1)
	if s.window.n == s.p.WindowSize {
		entry = s.window.pop() + 1
	}
	// The entry frontier is monotone (window-heap-monotone invariant), and
	// nothing can issue below it anymore: slide the issue ring.
	s.issue.advance(entry)
	lower := max64(entry, s.barrier)

	// Plain (non-collapsible) operand readiness.
	var plainReady int64
	for _, r := range inf.plain[:inf.nplain] {
		plainReady = max64(plainReady, s.regs[r].ready)
	}

	// Collapsible operand readiness (with the chosen collapse group).
	group := &s.group
	if inf.collapsing {
		s.chooseGroup(group, inf, seq, entry)
	} else {
		s.plainGroup(group, inf)
	}

	var issue int64
	if inf.load {
		issue = s.scheduleLoad(rec, inf, seq, lower, plainReady, group)
	} else {
		issue = s.slotted(max64(lower, max64(plainReady, group.ready)))
		if inf.store {
			s.stores[rec.Addr] = issue + inf.latency
			if s.p.Cache != nil {
				s.p.Cache.Access(rec.Addr) // write-allocate; no extra latency modeled
			}
		}
		s.commitGroup(inf, seq, group)
	}

	// Conditional branches: realistic prediction; a misprediction bars all
	// later instructions from issuing at or before the branch's cycle.
	if inf.condBranch {
		s.res.CondBranches++
		if p, ok := s.brc.(*bpred.Perfect); ok {
			p.SetOutcome(rec.Taken)
		}
		pred := s.brc.Predict(rec.PC)
		s.brc.Update(rec.PC, rec.Taken)
		if pred != rec.Taken {
			s.res.Mispredicts++
			s.barrier = max64(s.barrier, issue+1)
		}
	}

	s.windowPush(issue)

	// Record the new register definition.
	if inf.write >= 0 {
		d := &s.regs[inf.write]
		d.seq = seq
		d.issue = issue
		d.ready = issue + inf.latency + s.loadExtra
		if s.valueHit {
			// Value prediction removed the load-use dependence: consumers
			// read the predicted value without waiting for the load.
			d.ready = 0
		}
		d.counts = inf.Counts
		d.producer = inf.Producer
		d.sig = inf.SigID
		d.nsrcs = 0
		d.srcReady = 0
		if inf.Producer {
			for k := 0; k < inf.nslots; k++ {
				src := &s.regs[inf.slotRegs[k]]
				d.srcs[k] = srcSnap{
					seq:      src.seq,
					issue:    src.issue,
					ready:    src.ready,
					srcReady: src.srcReady,
					counts:   src.counts,
					producer: src.producer,
					sig:      src.sig,
					uses:     inf.slotUses[k],
				}
				d.srcReady = max64(d.srcReady, src.ready)
			}
			d.nsrcs = inf.nslots
		}
	}
}

// --- loads ----------------------------------------------------------------

func (s *sched) scheduleLoad(rec *trace.Record, inf *pcInfo, seq, lower, plainReady int64, group *groupChoice) int64 {
	s.res.Loads++
	addrReady := max64(plainReady, group.ready)
	memDep := s.stores[rec.Addr]

	// Realistic memory: a load that misses in the cache delivers its data
	// late. The access happens once, with the correct address (the paper
	// accounts the verification access only).
	if s.p.Cache != nil {
		if faultinject.Enabled() {
			if err := faultinject.Check(faultinject.PointCacheSim); err != nil {
				s.err = fmt.Errorf("core: cache simulation at instruction %d: %w", seq, err)
			}
		}
		if !s.p.Cache.Access(rec.Addr) {
			s.loadExtra = int64(s.p.Cache.Config().MissLatency)
		}
	}

	// Value prediction (configuration F): a confidently and correctly
	// predicted load value removes the load-use dependence entirely — the
	// load still issues below to verify the prediction, but its consumers
	// do not wait for it.
	if s.cfg.LoadValuePred {
		vp := s.vals.Lookup(rec.PC)
		s.vals.Update(rec.PC, rec.Value)
		switch {
		case !vp.Valid || !vp.Confident:
			s.res.ValueNotPred++
		case vp.Value == rec.Value:
			s.res.ValuePredCorrect++
			s.valueHit = true
		default:
			s.res.ValuePredIncorrect++
		}
	}

	speculative := s.cfg.LoadSpec || s.cfg.IdealLoadSpec

	// A "ready" load computes its address early enough that speculation is
	// pointless: its address is available by the time it could issue anyway.
	ready := addrReady <= lower
	if !speculative || ready {
		if speculative {
			s.res.LoadReady++
			s.addr.Update(rec.PC, rec.Addr)
		}
		issue := s.slotted(max64(lower, max64(addrReady, memDep)))
		s.commitGroup(inf, seq, group)
		return issue
	}

	if s.cfg.IdealLoadSpec {
		s.res.LoadPredCorrect++
		s.addr.Update(rec.PC, rec.Addr)
		return s.slotted(max64(lower, memDep)) // address dependence removed
	}

	pred := s.addr.Lookup(rec.PC)
	s.addr.Update(rec.PC, rec.Addr)
	switch {
	case !pred.Valid || !pred.Confident:
		s.res.LoadNotPred++
	case pred.Addr == rec.Addr:
		s.res.LoadPredCorrect++
		return s.slotted(max64(lower, memDep))
	default:
		s.res.LoadPredIncorrect++
		// The speculative issue fetched a wrong address; dependents wait
		// for the correct-address load, which issues exactly like the base
		// case (the paper accounts resources for verification only), so the
		// timing below is shared with the not-predicted path.
	}
	issue := s.slotted(max64(lower, max64(addrReady, memDep)))
	s.commitGroup(inf, seq, group)
	return issue
}

// --- collapsing ------------------------------------------------------------

// groupChoice is the outcome of operand scheduling for a consumer: the
// achieved operand readiness plus the collapse group (if any) that achieved
// it.
type groupChoice struct {
	ready     int64
	counts    collapse.Counts
	producers [3]srcSnap
	nprod     int
}

// plainGroup fills g with the operand readiness without collapsing: no
// producers, so commitGroup records nothing for it.
func (s *sched) plainGroup(g *groupChoice, inf *pcInfo) {
	g.ready, g.nprod = 0, 0
	for _, r := range inf.slotRegs[:inf.nslots] {
		g.ready = max64(g.ready, s.regs[r].ready)
	}
}

// chooseGroup enumerates the collapse options for the consumer's slots and
// picks the combination that minimizes operand readiness, preferring fewer
// collapsed producers on ties. Groups may span up to four instructions
// (consumer + three producers) when the expression fits the 4-1 device.
//
// A consumer has at most two distinct slot registers, so the enumeration
// is a flat (at most) double loop over the per-slot option lists — the old
// recursive closure allocated itself and its captures on every visit. The
// iteration order (slot 0 outer, slot 1 inner, options in slotOptions
// order) matches the recursion exactly, preserving tie-breaks bit for bit.
// The choice is written into best, so no group struct travels by value.
func (s *sched) chooseGroup(best *groupChoice, inf *pcInfo, seq, entry int64) {
	var nopts [2]int
	for i := 0; i < inf.nslots; i++ {
		nopts[i] = s.slotOptions(&s.opts[i], inf.slotRegs[i], seq, entry)
	}

	best.ready, best.nprod = -1, 0
	switch inf.nslots {
	case 0:
		s.consider(best, 0, inf.Counts, nil, nil)
	case 1:
		for i := range nopts[0] {
			o := &s.opts[0][i]
			c := inf.Counts
			if o.collapsed {
				c = c.ReplaceUses(inf.slotUses[0], o.unit)
			}
			s.consider(best, o.ready, c, o, nil)
		}
	default:
		for i := range nopts[0] {
			o0 := &s.opts[0][i]
			c0 := inf.Counts
			if o0.collapsed {
				c0 = c0.ReplaceUses(inf.slotUses[0], o0.unit)
			}
			for j := range nopts[1] {
				o1 := &s.opts[1][j]
				if o0.nprod+o1.nprod > 3 {
					continue
				}
				c := c0
				if o1.collapsed {
					c = c.ReplaceUses(inf.slotUses[1], o1.unit)
				}
				s.consider(best, max64(o0.ready, o1.ready), c, o0, o1)
			}
		}
	}
	if best.ready < 0 {
		s.plainGroup(best, inf)
	}
}

// consider evaluates one fully chosen option combination (o1 may be nil,
// and both are nil for slotless consumers) against the feasibility rules
// and the current best, replacing best when strictly better. It mirrors
// the leaf of the old recursion: same filters, same strict-improvement
// comparison, same producer order (slot 0's producers before slot 1's).
func (s *sched) consider(best *groupChoice, ready int64, counts collapse.Counts, o0, o1 *slotOption) {
	nprod := 0
	if o0 != nil {
		nprod += o0.nprod
	}
	if o1 != nil {
		nprod += o1.nprod
	}
	if s.cfg.PairsOnly && nprod > 1 {
		return
	}
	if s.cfg.NoZeroDetect && counts.Raw() > collapse.MaxInputs {
		return
	}
	if _, ok := collapse.Fit(counts); !ok && nprod > 0 {
		return
	}
	if !(best.ready < 0 || ready < best.ready || (ready == best.ready && nprod < best.nprod)) {
		return
	}
	best.ready = ready
	best.counts = counts
	n := 0
	if o0 != nil {
		n += copy(best.producers[n:], o0.producers[:o0.nprod])
	}
	if o1 != nil {
		n += copy(best.producers[n:], o1.producers[:o1.nprod])
	}
	best.nprod = n
}

// maxSlotOptions bounds the ways to obtain one operand: plain, pair-through,
// and one deeper option per non-empty subset of the producer's (at most
// two) own sources.
const maxSlotOptions = 2 + (1<<2 - 1)

// slotOptions writes the ways to obtain the operand in register r into
// opts, in place, and returns how many it wrote.
func (s *sched) slotOptions(opts *[maxSlotOptions]slotOption, r uint8, seq, entry int64) int {
	d := &s.regs[r]
	plain := &opts[0]
	plain.ready, plain.collapsed, plain.nprod = d.ready, false, 0

	if !d.producer || !s.coresident(d.seq, d.issue, seq, entry) {
		return 1
	}
	if s.cfg.ConsecutiveOnly && seq-d.seq != 1 {
		return 1
	}

	// Pair-through: wait for the producer's own sources instead.
	pair := &opts[1]
	pair.ready, pair.unit, pair.collapsed, pair.nprod = d.srcReady, d.counts, true, 1
	pair.producers[0] = srcSnap{
		seq: d.seq, issue: d.issue, ready: d.ready,
		srcReady: d.srcReady, counts: d.counts, producer: d.producer, sig: d.sig,
	}
	n := 2

	if s.cfg.PairsOnly {
		return n
	}

	// Deeper: additionally collapse through one or both of the producer's
	// own producers (chain / tree triples and the zero-detection quads).
	// A candidate is built in the next free slot and kept only if feasible.
	for mask := 1; mask < 1<<d.nsrcs; mask++ {
		o := &opts[n]
		o.ready, o.unit, o.collapsed, o.nprod = 0, d.counts, true, 1
		o.producers[0] = pair.producers[0]
		feasible := true
		for k := 0; k < d.nsrcs; k++ {
			src := &d.srcs[k]
			if mask&(1<<k) == 0 {
				o.ready = max64(o.ready, src.ready)
				continue
			}
			if !src.producer || !s.coresident(src.seq, src.issue, seq, entry) {
				feasible = false
				break
			}
			if s.cfg.ConsecutiveOnly {
				feasible = false
				break
			}
			o.ready = max64(o.ready, src.srcReady)
			// Replace every use of this source in the producer's counts
			// (a double use duplicates the sub-expression, as in the
			// paper's Rc = Rb + Rb example).
			o.unit = o.unit.ReplaceUses(src.uses, src.counts)
			o.producers[o.nprod] = *src
			o.nprod++
		}
		if feasible {
			n++
		}
	}
	return n
}

// coresident reports whether the producer at pseq (issuing at pissue) and
// the consumer entering the window at entry were in the window together.
// A producer that issued before the consumer's entry has left the window;
// distances beyond the window capacity are structurally impossible.
func (s *sched) coresident(pseq, pissue, cseq, entry int64) bool {
	if pseq < 0 {
		return false
	}
	if cseq-pseq >= int64(s.p.WindowSize) {
		return false
	}
	return pissue >= entry
}

// commitGroup records the statistics for a chosen collapse group. Groups
// with no producers (plain scheduling) record nothing. Signature tallies
// go into the packed-SigID tables; no strings are built here.
func (s *sched) commitGroup(inf *pcInfo, seq int64, g *groupChoice) {
	if g.nprod == 0 {
		return
	}
	cat, ok := collapse.Fit(g.counts)
	if !ok {
		return
	}
	s.res.Groups[cat]++
	s.res.GroupsBySize[min(g.nprod+1, 4)]++

	s.mark(seq)
	for i := 0; i < g.nprod; i++ {
		p := &g.producers[i]
		s.mark(p.seq)
		dist := seq - p.seq
		s.res.DistSum += dist
		s.res.DistCount++
		b := int(dist) - 1
		if b >= DistBuckets {
			b = DistBuckets - 1
		}
		s.res.DistHist[b]++
	}

	switch g.nprod {
	case 1:
		s.pairIDs[collapse.PackPair(g.producers[0].sig, inf.SigID)]++
	case 2:
		a, b := &g.producers[0], &g.producers[1]
		if a.seq > b.seq {
			a, b = b, a
		}
		s.tripleIDs[collapse.PackTriple(a.sig, b.sig, inf.SigID)]++
	}
}

func (s *sched) mark(seq int64) {
	idx := seq & s.ringMask
	if !s.ring[idx] {
		s.ring[idx] = true
		s.res.CollapsedInstrs++
	}
}

// finish seals the Result: it materializes the packed-SigID frequency
// tables into the string-keyed PairSigs/TripleSigs maps (the only place
// signature strings are built — see the interning invariant in
// internal/collapse) and copies the cache counters. The rendered keys are
// byte-identical to the old per-group concatenations.
func (s *sched) finish() *Result {
	s.res.Cycles = s.maxIssue
	s.res.PairSigs = make(map[string]int64, len(s.pairIDs))
	for k, n := range s.pairIDs {
		s.res.PairSigs[collapse.PairIDString(k)] = n
	}
	s.res.TripleSigs = make(map[string]int64, len(s.tripleIDs))
	for k, n := range s.tripleIDs {
		s.res.TripleSigs[collapse.TripleIDString(k)] = n
	}
	if s.p.Cache != nil {
		s.res.CacheAccesses = s.p.Cache.Accesses
		s.res.CacheMisses = s.p.Cache.Misses
	}
	return s.res
}
