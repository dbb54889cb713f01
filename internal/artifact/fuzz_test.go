package artifact

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"impala/internal/core"
	"impala/internal/dfa"
	"impala/internal/interconnect"
)

// Load's allocation budget: at most loadAllocFactor bytes per input byte plus
// loadAllocSlack, plus loadAllocGroup for every placement group the PLAC
// header can truthfully claim. The factor is the worst seed's, rounded up — a
// small artifact decodes to about six times its encoding (state structs,
// out-edge and match-rect slices, validate's one-byte-a-state seen-set), the
// 16 KB tiered one to under four, and every corruption row allocates less
// than the artifact it was cut from. The group term is the one place the
// format is sparse by design: a 20-byte group record decodes to nothing but a
// dense slot table (4 KB, or 16 KB with the hierarchical flag) however few
// slots it fills — sparse placements are valid, the placer splits bins — so
// a file made of empty groups decodes to 800 times its size and the budget
// says so instead of hiding it in the slack. What the budget is for: a length
// field that lies must fail its bounds check before the make it sizes, never
// after.
const (
	loadAllocFactor = 8
	loadAllocSlack  = 64 << 10
	loadAllocGroup  = interconnect.G16Size*4 + 256 // slot table + struct, slice growth
)

// placementGroups returns how many group records the first PLAC section of a
// container can hold and claims to (the lesser of its count field and its
// payload over the 20-byte record floor the PLAC layout enforces); 0 when the
// walk breaks down before reaching one.
func placementGroups(data []byte) int {
	for off := 16; len(data)-off >= 12; {
		length := binary.LittleEndian.Uint64(data[off+4:])
		if length > uint64(len(data)-off-12) {
			return 0
		}
		payload := data[off+12 : off+12+int(length)]
		if string(data[off:off+4]) == "PLAC" {
			if len(payload) < 12 {
				return 0
			}
			return min(int(binary.LittleEndian.Uint32(payload)), (len(payload)-12)/20)
		}
		off += 12 + int(length)
	}
	return 0
}

// loadAlloc loads data and returns what Load returned with the bytes the
// process allocated meanwhile.
func loadAlloc(data []byte) (*Artifact, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a, err := Load(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	return a, after.TotalAlloc - before.TotalAlloc, err
}

// fuzzSeeds is the corpus FuzzLoad starts from: one sealed artifact per
// optional section, the v8 goldens, the container-level corruption matrix,
// and for every section of every artifact the mutations the per-section
// matrices are made of — payload cut short, leading count field lying, a bit
// flipped inside, the section dropped.
func fuzzSeeds(t testing.TB) [][]byte {
	plain, _ := buildArtifact(t, "Bro217", 1)
	tiered, _ := buildTieredArtifact(t)
	sharded, _ := buildShardedArtifact(t, false)
	shardTiered, _ := buildShardedArtifact(t, true)
	scored, _ := buildScoredArtifact(t, core.Config{})
	tier := &dfa.TierOptions{CCMaxStates: 1024, MinStateShare: -1}
	scoredTiered, _ := buildScoredArtifact(t, core.Config{Tier: tier})
	scoredSharded, _ := buildScoredArtifact(t, core.Config{Tier: tier, Shards: 3})
	cam, _ := buildCamArtifact(t, "Bro217")
	// The DFAT decode reads a phase table four entries at a time: 2-bit
	// tables are rows of exactly one such read, 8-bit ones of 64.
	tiered2, _ := buildTieredArtifactAt(t, 2, 4)
	tiered8, _ := buildTieredArtifactAt(t, 8, 1)
	// A DFA that steps bytes: one table per byte of the cycle.
	byteTiered, _ := buildByteTieredArtifact(t)
	var seeds [][]byte
	for _, tc := range containerCases(t, saveBytes(t, plain)) {
		seeds = append(seeds, tc.mut())
	}
	seeds = append(seeds, emptyGroupsSeed(t, saveBytes(t, plain), 200))
	_, goldens := goldenFiles(t, 8)
	seeds = append(seeds, goldens...)
	for _, a := range []*Artifact{plain, tiered, sharded, shardTiered, buildTopoArtifact(t), scored, scoredTiered, scoredSharded, cam, tiered2, tiered8, byteTiered} {
		raw := saveBytes(t, a)
		seeds = append(seeds, raw)
		_, chunks := sections(t, raw)
		for i, sec := range chunks {
			mutate := func(edit func(sec []byte) []byte) {
				mut := append([][]byte(nil), chunks...)
				mut[i] = edit(append([]byte(nil), sec...))
				seeds = append(seeds, rebuild(raw, mut))
			}
			mutate(func(sec []byte) []byte { return nil })
			if len(sec) < 12+8 {
				continue
			}
			mutate(func(sec []byte) []byte {
				binary.LittleEndian.PutUint64(sec[4:], uint64(len(sec)-12-4))
				return sec[:len(sec)-4]
			})
			mutate(func(sec []byte) []byte {
				binary.LittleEndian.PutUint32(sec[12:], 1<<31-1)
				return sec
			})
			mutate(func(sec []byte) []byte {
				sec[12+(len(sec)-12)/2] ^= 0x10
				return sec
			})
		}
	}
	return seeds
}

// emptyGroupsSeed is raw with its PLAC payload replaced by n group records
// that place nothing, every one flagged hierarchical: the input class with
// the highest allocation per byte Load can be made to see (validate refuses
// it afterwards — the placement covers no state).
func emptyGroupsSeed(t testing.TB, raw []byte, n int) []byte {
	_, chunks := sections(t, raw)
	for i, sec := range chunks {
		if string(sec[:4]) != "PLAC" {
			continue
		}
		plac := make([]byte, 12+12+20*n)
		copy(plac, "PLAC")
		binary.LittleEndian.PutUint64(plac[4:], uint64(len(plac)-12))
		binary.LittleEndian.PutUint32(plac[12:], uint32(n))
		for g := 0; g < n; g++ {
			plac[12+12+20*g] = 1
		}
		chunks[i] = plac
	}
	return rebuild(raw, chunks)
}

// FuzzLoad drives Load with arbitrary bytes. The CRC is re-stamped over the
// mutated body so mutations reach the section decoders (the input is first
// tried as it came: the stale-CRC path). Load must not panic, must stay
// inside its allocation budget, and whatever it accepts must save back to the
// very bytes it was loaded from.
func FuzzLoad(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = Load(bytes.NewReader(data))
		if len(data) < 16 {
			return
		}
		data = restamp(data)
		budget := uint64(loadAllocFactor*len(data) + loadAllocSlack + loadAllocGroup*placementGroups(data))
		a, got, err := loadAlloc(data)
		if got > budget {
			// TotalAlloc is process-wide; an over-allocating decoder does it
			// again, a stray allocation elsewhere does not.
			_, got, _ = loadAlloc(data)
		}
		if got > budget {
			t.Fatalf("Load of %d bytes allocated %d, budget %d (err: %v)", len(data), got, budget, err)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := a.Save(&out); err != nil {
			t.Fatalf("Load accepted what Save refuses: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("save(load(x)) != x: %d bytes in, %d out", len(data), out.Len())
		}
	})
}
