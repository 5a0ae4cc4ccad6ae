package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"
)

// gen derives the inputs of a run from the one --seed argument:
// payloads, the open-loop arrival schedule and the Monte-Carlo trials'
// placements. The program under test
// receives only what gen produces; its own configuration (link seed,
// tag, distance) is fixed per workload.
//
// Session ids are not seeded. The daemon draws each session's
// placement and channel from its id, so seeded ids would let the seed
// pick the channel population, and with it the decode cost and
// adaptation path of every frame. A fixed population keeps runs at
// different seeds comparable.
type gen struct {
	seed     int64
	workload string
}

// mix folds values into one seed (splitmix64 finalizer per step).
func mix(vals ...uint64) int64 {
	z := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		z ^= v
		z += 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z)
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func fnv32(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// sessionID names session k of a phase: the first suffix whose id the
// daemon places on the wanted shard (FNV-1a 32 of the id mod shards,
// as serve places sessions), so sessions driven concurrently never
// share a shard's worker.
func (g gen) sessionID(phase string, k, shard, shards int) string {
	for salt := uint64(0); ; salt++ {
		tag := uint32(mix(hashString(g.workload), hashString(phase), uint64(k), salt))
		id := fmt.Sprintf("%s-%s-%d-%08x", g.workload, phase, k, tag)
		if int(fnv32(id)%uint32(shards)) == shard {
			return id
		}
	}
}

// payloads returns n seeded payloads of size bytes for one stream.
func (g gen) payloads(stream string, n, size int) [][]byte {
	rng := rand.New(rand.NewSource(mix(uint64(g.seed), hashString(stream))))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}

// schedule returns the due offsets of a fixed-rate open loop: n
// arrivals every 1/rate seconds, shifted by a seeded phase in
// [0, 1/rate) so the sessions of a run do not arrive in lockstep.
func (g gen) schedule(stream string, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(mix(uint64(g.seed), hashString(stream), 1)))
	period := float64(time.Second) / rate
	phase := rng.Float64() * period
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(phase + float64(i)*period)
	}
	return out
}
