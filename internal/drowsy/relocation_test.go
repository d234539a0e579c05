package drowsy

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"drowsydc/internal/cluster"
	"drowsydc/internal/neat"
	"drowsydc/internal/simtime"
	"drowsydc/internal/trace"
)

// refStats counts how often the reference took the paths the open-host
// list must reproduce, so the equivalence below cannot pass vacuously.
type refStats struct {
	relaxed    int // picks that needed the relaxed CPU pass
	unplaced   int // VMs no host could take
	tieOnEmpty int // VMs kept on an empty current host past a lower-index empty twin
}

// referencePlan is full relocation's assignment built by the literal
// pick: every host scanned for every VM, no early exit. It counts its
// IP evaluations on p exactly as relocationPlan does.
func referencePlan(p *Policy, c *cluster.Cluster, hr simtime.Hour, st *refStats) []cluster.Assignment {
	var stamps [ProfileHours]simtime.Stamp
	for k := range stamps {
		stamps[k] = simtime.Decompose(hr + simtime.Hour(k))
	}
	type cand struct {
		vm   *cluster.VM
		prof [ProfileHours]float64
		ip   float64
	}
	var cands []cand
	for _, v := range c.VMs() {
		cd := cand{vm: v, prof: p.vmProfile(v, &stamps)}
		for _, x := range cd.prof {
			cd.ip += x
		}
		cd.ip /= ProfileHours
		cands = append(cands, cd)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].vm.MemGB != cands[j].vm.MemGB {
			return cands[i].vm.MemGB > cands[j].vm.MemGB
		}
		if cands[i].ip != cands[j].ip {
			return cands[i].ip < cands[j].ip
		}
		return cands[i].vm.ID < cands[j].vm.ID
	})
	hosts := c.Hosts()
	budget := p.opts.Neat.Options().OverloadThr
	type load struct {
		mem, num int
		cpu      float64
		sum      [ProfileHours]float64
	}
	loads := make([]load, len(hosts))
	mean := func(hi int) (m [ProfileHours]float64) {
		if loads[hi].num == 0 {
			return m
		}
		for k := range m {
			m[k] = loads[hi].sum[k] / float64(loads[hi].num)
		}
		return m
	}
	var plan []cluster.Assignment
	for _, cd := range cands {
		v := cd.vm
		demand := v.Activity(hr) * float64(v.VCPUs)
		pick := func(relaxed bool) int {
			best, bestScore := -1, math.Inf(1)
			for hi, h := range hosts {
				l := &loads[hi]
				if h.MaxVMs > 0 && l.num+1 > h.MaxVMs || l.mem+v.MemGB > h.MemGB {
					continue
				}
				if !relaxed && (l.cpu+demand)/float64(h.VCPUs) > budget {
					continue
				}
				eps := 0.0
				if h == v.Host() {
					eps = tieEpsilon
				}
				m := mean(hi)
				if score := profileDist(&m, &cd.prof) - eps; score < bestScore {
					best, bestScore = hi, score
				}
			}
			return best
		}
		hi := pick(false)
		if hi < 0 {
			hi = pick(true)
			if hi >= 0 {
				st.relaxed++
			}
		}
		if hi < 0 {
			st.unplaced++
			continue
		}
		if h := hosts[hi]; h == v.Host() && loads[hi].num == 0 {
			for lo := 0; lo < hi; lo++ {
				g := hosts[lo]
				if loads[lo].num == 0 && g.MaxVMs == h.MaxVMs && g.MemGB == h.MemGB && g.VCPUs == h.VCPUs {
					st.tieOnEmpty++
					break
				}
			}
		}
		l := &loads[hi]
		l.mem += v.MemGB
		l.num++
		l.cpu += demand
		for k := range cd.prof {
			l.sum[k] += cd.prof[k]
		}
		plan = append(plan, cluster.Assignment{VM: v, Host: hosts[hi]})
	}
	return plan
}

// randomFleet builds a trained cluster: homogeneous or multi-class
// hosts (memory-bound MaxVMs == 0 classes included), VMs of mixed size
// and behaviour, a random partial placement.
func randomFleet(rng *rand.Rand, trial int) *cluster.Cluster {
	type shape struct{ mem, vcpus, slots int }
	classes := []shape{{16, 8, 4}}
	if trial%4 != 0 {
		classes = nil
		for k := 0; k < 2+rng.Intn(3); k++ {
			slots := rng.Intn(5) // 0: bounded by memory only
			classes = append(classes, shape{8 + 4*rng.Intn(4), 2 + 2*rng.Intn(4), slots})
		}
	}
	c := cluster.New()
	nHosts := 4 + rng.Intn(28)
	for i := 0; i < nHosts; i++ {
		s := classes[rng.Intn(len(classes))]
		c.AddHost(cluster.NewHost(i, fmt.Sprintf("h%d", i), s.mem, s.vcpus, s.slots))
	}
	gens := []trace.Generator{
		trace.DailyBackup(0.4), trace.LLMU(uint64(trial)), trace.RealTrace(1 + rng.Intn(5)),
		trace.ComicStrips(0.5), trace.Variant(trace.RealTrace(2), uint64(trial), rng.Intn(24)),
	}
	nVMs := 2 + rng.Intn(3*nHosts)
	for i := 0; i < nVMs; i++ {
		v := cluster.NewVM(i, fmt.Sprintf("v%d", i), cluster.KindLLMI, 1+rng.Intn(6), 1+rng.Intn(3),
			gens[rng.Intn(len(gens))])
		c.AddVM(v)
		if rng.Intn(6) == 0 {
			continue // left unplaced
		}
		for _, hi := range rng.Perm(nHosts) {
			if h := c.Hosts()[hi]; h.CanHost(v) {
				_ = c.Place(v, h)
				break
			}
		}
	}
	train(c.VMs(), 24*(3+rng.Intn(10)))
	return c
}

func samePlan(t *testing.T, tag string, got, want []cluster.Assignment) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: plan places %d VMs, reference %d", tag, len(got), len(want))
	}
	for i := range got {
		if got[i].VM != want[i].VM || got[i].Host != want[i].Host {
			t.Fatalf("%s: step %d plans %s → host %d, reference %s → host %d", tag, i,
				got[i].VM.Name, got[i].Host.ID, want[i].VM.Name, want[i].Host.ID)
		}
	}
}

// TestRelocationPlanMatchesLiteralScan is the oracle for the open-host
// pick: on randomized fleets the plan (every VM → host) and the IP
// evaluation count equal those of the literal every-host scan, round
// after round as the placement evolves.
func TestRelocationPlanMatchesLiteralScan(t *testing.T) {
	rng := rand.New(rand.NewSource(0xd1a5))
	var st refStats
	for trial := 0; trial < 40; trial++ {
		c := randomFleet(rng, trial)
		nopts := neat.Options{}
		if trial%3 == 1 {
			nopts.OverloadThr = 0.05 + 0.2*rng.Float64() // tight: forces relaxed picks
		}
		p := New(Options{FullRelocation: true, Neat: neat.New(nopts)})
		ref := New(Options{FullRelocation: true, Neat: neat.New(nopts)})
		hr := simtime.Hour(24 * 14)
		for round := 0; round < 4; round++ {
			tag := fmt.Sprintf("trial %d round %d", trial, round)
			want := referencePlan(ref, c, hr, &st)
			got := append([]cluster.Assignment(nil), p.relocationPlan(c, hr)...)
			samePlan(t, tag, got, want)
			if p.IPEvaluations() != ref.IPEvaluations() {
				t.Fatalf("%s: %d IP evaluations, reference %d", tag, p.IPEvaluations(), ref.IPEvaluations())
			}
			// Evolve the placement: adopt the plan (validation refuses
			// it when an unplaced VM stays on an overfull host), or
			// migrate a few VMs at random.
			if round%2 != 0 || c.ApplyAssignments(got) != nil {
				for range 3 {
					v, h := c.VMs()[rng.Intn(len(c.VMs()))], c.Hosts()[rng.Intn(len(c.Hosts()))]
					if v.Host() != nil && v.Host() != h && h.CanHost(v) {
						_ = c.Migrate(v, h)
					}
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			hr += simtime.Hour(1 + rng.Intn(30))
		}
	}
	if st.relaxed == 0 || st.unplaced == 0 || st.tieOnEmpty == 0 {
		t.Fatalf("reference paths not all exercised: %+v", st)
	}
}

// TestRelocationKeepsEmptyCurrentHost pins the tie bonus on an empty
// current host: a lone VM on the last of four identical empty hosts
// stays put, although the scan meets three equal-scoring twins first.
func TestRelocationKeepsEmptyCurrentHost(t *testing.T) {
	c := buildCluster(4, 2)
	v := cluster.NewVM(0, "v", cluster.KindLLMI, 4, 2, trace.DailyBackup(0.4))
	c.AddVM(v)
	_ = c.Place(v, c.Hosts()[3])
	train(c.VMs(), 7*24)
	plan := New(Options{FullRelocation: true}).relocationPlan(c, 8*24)
	if len(plan) != 1 || plan[0].Host != c.Hosts()[3] {
		t.Fatalf("plan %v moves the VM off its empty current host", plan)
	}
}
