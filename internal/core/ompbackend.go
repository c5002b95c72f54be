package core

import (
	"lulesh/internal/domain"
	"lulesh/internal/kernels"
	"lulesh/internal/omp"
)

// BackendOMP reproduces the execution model of the OpenMP reference
// implementation: every loop of the leapfrog iteration is statically split
// across a persistent thread team with a full synchronization barrier at
// the end (ParallelForBlock), and loop groups that the reference places in
// one `#pragma omp parallel` region share a single dispatch. The equation
// of state is evaluated region-after-region with parallel loops *inside*
// each region — the structural weakness (many small loops, each followed by
// a barrier) that the paper's task-based approach removes.
type BackendOMP struct {
	pool *omp.Pool
	buf  *buffers

	// schedule selects the loop worksharing policy (the reference uses
	// static everywhere; dynamic/guided are provided to demonstrate that
	// intra-loop dynamic scheduling cannot recover the cross-loop
	// imbalance the task backend exploits).
	schedule Schedule

	// Per-thread partial minima for the time-constraint reductions.
	dtcPart, dthPart []float64

	// Loop bodies, built once for the domain in bound; per-construct
	// inputs reach them through the fields below, so a static-schedule
	// step allocates nothing.
	bound   *domain.Domain
	loops   ompLoops
	delt    float64 // the cycle's time step
	regList []int32 // element list of the region being processed
}

// ompLoops holds one body per fork-join construct of the leapfrog step.
type ompLoops struct {
	zeroForces, initStress, integrateStress, gatherStress, checkDeterm func(lo, hi int)
	hourglassPrep, fbHourglass, gatherHourglass                        func(lo, hi int)
	accel, velocity, position                                          func(lo, hi int)
	kinematics, strainRate, monoQGradients, monoQRegion                func(lo, hi int)
	energy1, pressureHalf, energy2, energy3, pressureNew               func(lo, hi int)
	energy4, energy5, eosStore, soundSpeed, updateVolumes              func(lo, hi int)
	symmBC                                                             func(tid int)
	vnewc, eosCompress, courant, hydro                                 func(tid, lo, hi int)
}

// Schedule is an OpenMP loop-scheduling policy.
type Schedule int

// Loop schedules.
const (
	ScheduleStatic Schedule = iota
	ScheduleDynamic
	ScheduleGuided
)

// dynChunk is the chunk size used by the dynamic/guided schedules,
// matching a typical `schedule(dynamic, 64)` clause.
const dynChunk = 64

// NewBackendOMP creates a fork-join backend with the given team size
// (0 = one thread per core) for domains shaped like d.
func NewBackendOMP(d *domain.Domain, threads int) *BackendOMP {
	return NewBackendOMPSchedule(d, threads, ScheduleStatic)
}

// NewBackendOMPSchedule creates a fork-join backend using the given loop
// schedule for its worksharing loops. Results are bitwise independent of
// the schedule (per-datum arithmetic never changes).
func NewBackendOMPSchedule(d *domain.Domain, threads int, sched Schedule) *BackendOMP {
	p := omp.NewPool(threads)
	return &BackendOMP{
		pool:     p,
		buf:      newBuffers(d),
		schedule: sched,
		dtcPart:  make([]float64, p.Threads()),
		dthPart:  make([]float64, p.Threads()),
	}
}

// bind builds the loop bodies for domain d. Each body reads the domain's
// parameters and the backend's per-construct fields when it runs, exactly
// as a closure built per call would.
func (b *BackendOMP) bind(d *domain.Domain) {
	buf := b.buf
	s := buf.scratch
	p := &d.Par
	nth := b.pool.Threads()
	l := &b.loops

	l.zeroForces = func(lo, hi int) { kernels.ZeroForces(d, lo, hi) }
	l.initStress = func(lo, hi int) {
		kernels.InitStressTerms(d, buf.sigxx, buf.sigyy, buf.sigzz, lo, hi)
	}
	l.integrateStress = func(lo, hi int) {
		kernels.IntegrateStress(d, buf.sigxx, buf.sigyy, buf.sigzz, buf.determS,
			buf.fxS, buf.fyS, buf.fzS, lo, hi)
	}
	l.gatherStress = func(lo, hi int) {
		kernels.GatherCornerForces(d, buf.fxS, buf.fyS, buf.fzS, lo, hi, false)
	}
	l.checkDeterm = func(lo, hi int) { kernels.CheckDeterm(buf.determS, lo, hi, &buf.flag) }
	l.hourglassPrep = func(lo, hi int) {
		kernels.HourglassPrep(d, buf.dvdx, buf.dvdy, buf.dvdz,
			buf.x8n, buf.y8n, buf.z8n, buf.determH, 0, lo, hi, &buf.flag)
	}
	l.fbHourglass = func(lo, hi int) {
		kernels.FBHourglass(d, buf.dvdx, buf.dvdy, buf.dvdz,
			buf.x8n, buf.y8n, buf.z8n, buf.determH, p.HGCoef, 0, lo, hi,
			buf.fxH, buf.fyH, buf.fzH)
	}
	l.gatherHourglass = func(lo, hi int) {
		kernels.GatherCornerForces(d, buf.fxH, buf.fyH, buf.fzH, lo, hi, true)
	}

	l.accel = func(lo, hi int) { kernels.CalcAcceleration(d, lo, hi) }
	l.symmBC = func(tid int) {
		lo, hi := omp.StaticRange(tid, nth, len(d.Mesh.SymmX))
		kernels.ApplyAccelBCList(d, d.Mesh.SymmX, 0, lo, hi)
		lo, hi = omp.StaticRange(tid, nth, len(d.Mesh.SymmY))
		kernels.ApplyAccelBCList(d, d.Mesh.SymmY, 1, lo, hi)
		lo, hi = omp.StaticRange(tid, nth, len(d.Mesh.SymmZ))
		kernels.ApplyAccelBCList(d, d.Mesh.SymmZ, 2, lo, hi)
	}
	l.velocity = func(lo, hi int) { kernels.CalcVelocity(d, b.delt, p.UCut, lo, hi) }
	l.position = func(lo, hi int) { kernels.CalcPosition(d, b.delt, lo, hi) }

	l.kinematics = func(lo, hi int) { kernels.CalcKinematics(d, b.delt, lo, hi) }
	l.strainRate = func(lo, hi int) { kernels.CalcStrainRate(d, lo, hi, &buf.flag) }
	l.monoQGradients = func(lo, hi int) { kernels.MonoQGradients(d, lo, hi) }
	l.monoQRegion = func(lo, hi int) { kernels.MonoQRegion(d, b.regList, lo, hi) }
	l.vnewc = func(tid, lo, hi int) {
		kernels.CopyVnewc(d, buf.vnewc, lo, hi)
		if p.EOSvMin != 0 {
			kernels.ClampVnewcLow(buf.vnewc, p.EOSvMin, lo, hi)
		}
		if p.EOSvMax != 0 {
			kernels.ClampVnewcHigh(buf.vnewc, p.EOSvMax, lo, hi)
		}
		kernels.CheckVBounds(d, lo, hi, &buf.flag)
	}

	l.eosCompress = func(tid, lo, hi int) {
		regList := b.regList
		kernels.EOSGather(d, regList, s, lo, lo, hi)
		kernels.EOSCompression(d, buf.vnewc, regList, s, lo, lo, hi)
		if p.EOSvMin != 0 {
			kernels.EOSClampVMin(d, buf.vnewc, regList, s, p.EOSvMin, lo, lo, hi)
		}
		if p.EOSvMax != 0 {
			kernels.EOSClampVMax(d, buf.vnewc, regList, s, p.EOSvMax, lo, lo, hi)
		}
		kernels.EOSZeroWork(s, lo, lo, hi)
	}
	l.energy1 = func(lo, hi int) { kernels.EnergyStep1(s, p.Emin, lo, hi) }
	l.pressureHalf = func(lo, hi int) {
		kernels.CalcPressure(s.PHalfStep, s.Bvc, s.Pbvc, s.ENew, s.CompHalfStep,
			buf.vnewc, b.regList, 0, p.Pmin, p.PCut, p.EOSvMax, lo, hi)
	}
	l.energy2 = func(lo, hi int) { kernels.EnergyStep2(s, p.RefDens, lo, hi) }
	l.energy3 = func(lo, hi int) { kernels.EnergyStep3(s, p.ECut, p.Emin, lo, hi) }
	l.pressureNew = func(lo, hi int) {
		kernels.CalcPressure(s.PNew, s.Bvc, s.Pbvc, s.ENew, s.Compression,
			buf.vnewc, b.regList, 0, p.Pmin, p.PCut, p.EOSvMax, lo, hi)
	}
	l.energy4 = func(lo, hi int) {
		kernels.EnergyStep4(s, buf.vnewc, b.regList, 0, p.RefDens, p.ECut, p.Emin, lo, hi)
	}
	l.energy5 = func(lo, hi int) {
		kernels.EnergyStep5(s, buf.vnewc, b.regList, 0, p.RefDens, p.QCut, lo, hi)
	}
	l.eosStore = func(lo, hi int) { kernels.EOSStore(d, b.regList, s, lo, lo, hi) }
	l.soundSpeed = func(lo, hi int) {
		kernels.CalcSoundSpeed(d, buf.vnewc, b.regList, s, lo, lo, hi)
	}
	l.updateVolumes = func(lo, hi int) { kernels.UpdateVolumes(d, p.VCut, lo, hi) }

	l.courant = func(tid, lo, hi int) {
		b.dtcPart[tid] = kernels.CourantConstraint(d, b.regList, lo, hi)
	}
	l.hydro = func(tid, lo, hi int) {
		b.dthPart[tid] = kernels.HydroConstraint(d, b.regList, lo, hi)
	}
	b.bound = d
}

// forBlock dispatches one worksharing loop under the configured schedule.
func (b *BackendOMP) forBlock(n int, body func(lo, hi int)) {
	switch b.schedule {
	case ScheduleDynamic:
		b.pool.ParallelForDynamic(n, dynChunk, body)
	case ScheduleGuided:
		b.pool.ParallelForGuided(n, dynChunk, body)
	default:
		b.pool.ParallelForBlock(n, body)
	}
}

func (b *BackendOMP) Name() string { return "omp" }

// Threads reports the team size.
func (b *BackendOMP) Threads() int { return b.pool.Threads() }

// Utilization reports the productive-time ratio across parallel regions.
func (b *BackendOMP) Utilization() (float64, bool) {
	return b.pool.CountersSnapshot().Utilization(), true
}

// ResetCounters restarts utilization accounting.
func (b *BackendOMP) ResetCounters() { b.pool.ResetCounters() }

// Close stops the thread team.
func (b *BackendOMP) Close() { b.pool.Close() }

// Step advances one leapfrog iteration with one fork-join construct per
// reference loop.
func (b *BackendOMP) Step(d *domain.Domain) error {
	if b.bound != d {
		b.bind(d)
	}
	buf := b.buf
	pool := b.pool
	l := &b.loops
	buf.flag.Reset()
	ne := d.NumElem()
	nn := d.NumNode()
	b.delt = d.Deltatime

	// --- LagrangeNodal -------------------------------------------------
	// Each kernel family publishes its phase tag before dispatching; the
	// descriptor carries it to the team, so per-phase tables line up with
	// the task backend's.
	pool.SetPhase(PhaseForce)
	b.forBlock(nn, l.zeroForces)
	b.forBlock(ne, l.initStress)
	b.forBlock(ne, l.integrateStress)
	b.forBlock(nn, l.gatherStress)
	b.forBlock(ne, l.checkDeterm)
	if err := buf.flag.Err(); err != nil {
		return err
	}

	b.forBlock(ne, l.hourglassPrep)
	if err := buf.flag.Err(); err != nil {
		return err
	}
	if d.Par.HGCoef > 0 {
		b.forBlock(ne, l.fbHourglass)
		b.forBlock(nn, l.gatherHourglass)
	}

	pool.SetPhase(PhaseNodal)
	b.forBlock(nn, l.accel)
	// The three symmetry-plane loops share one parallel region in the
	// reference (omp for nowait each).
	pool.Parallel(l.symmBC)
	b.forBlock(nn, l.velocity)
	b.forBlock(nn, l.position)

	// --- LagrangeElements ----------------------------------------------
	pool.SetPhase(PhaseElements)
	b.forBlock(ne, l.kinematics)
	b.forBlock(ne, l.strainRate)
	if err := buf.flag.Err(); err != nil {
		return err
	}

	b.forBlock(ne, l.monoQGradients)
	for _, regList := range d.Regions.ElemList {
		b.regList = regList
		b.forBlock(len(regList), l.monoQRegion)
	}
	// The qstop scan is serial in the reference.
	kernels.QStopCheck(d, 0, ne, &buf.flag)
	if err := buf.flag.Err(); err != nil {
		return err
	}

	// vnewc preparation: one parallel region, index-aligned loops.
	pool.ParallelStatic(ne, l.vnewc)
	if err := buf.flag.Err(); err != nil {
		return err
	}

	pool.SetPhase(PhaseRegions)
	for r, regList := range d.Regions.ElemList {
		b.regList = regList
		b.evalEOSRegion(len(regList), d.Regions.Rep(r))
	}
	pool.SetPhase(PhaseVolumes)
	b.forBlock(ne, l.updateVolumes)

	// --- CalcTimeConstraintsForElems ------------------------------------
	pool.SetPhase(PhaseConstraints)
	d.Dtcourant = kernels.HugeDt
	d.Dthydro = kernels.HugeDt
	for _, regList := range d.Regions.ElemList {
		b.regList = regList
		pool.ParallelStatic(len(regList), l.courant)
		for _, v := range b.dtcPart {
			if v < d.Dtcourant {
				d.Dtcourant = v
			}
		}
		pool.ParallelStatic(len(regList), l.hydro)
		for _, v := range b.dthPart {
			if v < d.Dthydro {
				d.Dthydro = v
			}
		}
	}
	pool.SetPhase(PhaseOther)
	return nil
}

// evalEOSRegion evaluates the equation of state for the region in
// b.regList (count elements, rep repetitions) with the reference's
// loop-by-loop parallelization: one parallel region for the
// compress/gather block, then one fork-join construct per energy loop.
func (b *BackendOMP) evalEOSRegion(count, rep int) {
	l := &b.loops
	b.buf.scratch.Ensure(count)

	for j := 0; j < rep; j++ {
		// Gather/compress block: one parallel region, nowait loops over
		// identical index ranges.
		b.pool.ParallelStatic(count, l.eosCompress)

		// CalcEnergyForElems: each loop is its own parallel-for in the
		// reference.
		b.forBlock(count, l.energy1)
		b.forBlock(count, l.pressureHalf)
		b.forBlock(count, l.energy2)
		b.forBlock(count, l.energy3)
		b.forBlock(count, l.pressureNew)
		b.forBlock(count, l.energy4)
		b.forBlock(count, l.pressureNew)
		b.forBlock(count, l.energy5)
	}

	b.forBlock(count, l.eosStore)
	b.forBlock(count, l.soundSpeed)
}
