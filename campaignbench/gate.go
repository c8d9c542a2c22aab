package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
)

// pins holds, per workload and trace length, the digest of every
// operation's gated output in operation order. They were computed with
// the code this benchmark was added against, whose fronts the
// repository's front-identity tests hold to the exhaustive oracle; an
// operation whose digest differs from its pin fails. The trace lengths
// other than each workload's default are the ones the package tests run.
var pins = map[string]map[int][]string{
	paperLive: {
		4000: {"53f180dd91d766ea", "6cb05f6b9e302baa", "cef2d54ef88a96c3", "982cb889296c8157"},
		300:  {"2261f5284ec633ed", "8e758ffc7425c59c", "e7bc7f3f9d892c0d", "b3e475222c6c4d08"},
	},
	flowmonCold: {
		1000: {"3ccd61f05dfdbf05"},
		300:  {"4e824a2ec567fb27"},
	},
	screenedWarm: {
		8000: {"0c4a9166edf99eff", "9d64cf7203d08a3c", "538e3d50786c9473", "4e9b5277424f4381", "586ba5ff2990314d"},
		1000: {"340faa6410f5ca27", "dc07bcc86b62d5fa", "8ca0bbda7bc9c8d5", "01f320e27107b183", "8ca0bbda7bc9c8d5"},
	},
}

// digest hashes what the correctness gate pins: the Step1 survivor
// membership and the membership of each configuration's 4-D front. The
// cross-configuration averaged set is left out on purpose: under pruning
// with concurrent workers it legitimately varies between runs, because a
// survivor pruned on some configuration drops out of the averaging.
func digest(o outcome) string {
	var sb strings.Builder
	sb.WriteString("survivors:")
	survivors := make([]string, len(o.s1.Survivors))
	for i, r := range o.s1.Survivors {
		survivors[i] = r.Label()
	}
	slices.Sort(survivors)
	sb.WriteString(strings.Join(survivors, ","))
	for _, f := range o.fronts {
		sb.WriteString("\n")
		sb.WriteString(f.config)
		sb.WriteString(":")
		sb.WriteString(strings.Join(slices.Sorted(slices.Values(f.labels)), ","))
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:8])
}

// check gates one operation, the idx-th of its round: its digest must
// match the pin and the workload's premise must hold.
func (b *bench) check(idx int, o outcome) error {
	want := pins[b.w.name][b.packets]
	got := digest(o)
	if idx >= len(want) {
		return fmt.Errorf("%s: no pinned digest for operation %d at %d packets (got %s)", o.op, idx, b.packets, got)
	}
	if got != want[idx] {
		return fmt.Errorf("%s: front digest %s, pinned %s", o.op, got, want[idx])
	}
	return b.w.premise(b, o)
}

// premisePaperLive: the oracle runs every combination live, so nothing
// may be composed, bound-pruned or sampled.
func premisePaperLive(_ *bench, o outcome) error {
	if s := o.stats; s.Composed != 0 || s.Pruned != 0 || s.Sampled != 0 {
		return fmt.Errorf("%s: exhaustive live run composed %d, pruned %d, sampled %d; want all zero", o.op, s.Composed, s.Pruned, s.Sampled)
	}
	return nil
}

// premiseFlowmon: the space is 10^5, and the materialized combinations
// plus the bulk subtree cuts account for every one of them.
func premiseFlowmon(_ *bench, o outcome) error {
	s1 := o.s1
	if s1.Simulations != 100000 {
		return fmt.Errorf("%s: combination space %d, want 100000", o.op, s1.Simulations)
	}
	individual := 0
	for _, r := range s1.Results {
		if r.Pruned {
			individual++
		}
	}
	bulk := s1.Pruned - individual
	if len(s1.Results)+bulk != s1.Simulations {
		return fmt.Errorf("%s: %d materialized + %d bulk-cut combinations, want %d", o.op, len(s1.Results), bulk, s1.Simulations)
	}
	return nil
}

// premiseScreened: the warm lane store serves every platform with no
// live simulation, and the four dispositions cover the 10^3 space.
func premiseScreened(_ *bench, o outcome) error {
	if o.stats.Simulated != 0 {
		return fmt.Errorf("%s: %d live simulations on a warm lane store, want 0", o.op, o.stats.Simulated)
	}
	s1 := o.s1
	if n := s1.Screened + s1.Verified + s1.Pruned + s1.Aborted; n != 1000 || s1.Simulations != 1000 {
		return fmt.Errorf("%s: screened %d + verified %d + pruned %d + aborted %d = %d over a space of %d, want 1000",
			o.op, s1.Screened, s1.Verified, s1.Pruned, s1.Aborted, n, s1.Simulations)
	}
	return nil
}
