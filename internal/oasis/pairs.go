package oasis

import "slices"

// Pair keys pack a pair (a, b), a < b, as a<<32 | b, so ascending key
// order is the reference selection's (a, b) tiebreak.
const pairLow = 1<<32 - 1

// pairChunk is the pool's chunk size in keys (8 KiB). A level whose
// live pairs fit one chunk is sorted in place, with no temporary and no
// O(n) count table; longer levels take the two counting passes.
const (
	pairChunkBits = 10
	pairChunk     = 1 << pairChunkBits
	pairChunkMask = pairChunk - 1
)

// pairPool is the round's pair storage: fixed-size chunks shared by all
// score levels and by the ordering pass's temporary, recycled through a
// free list. Its footprint is the round's peak of outstanding pairs,
// not the sum of every level's historical maximum.
type pairPool struct {
	chunks [][]uint64
	free   []int32
	cnt    []int32  // counting-pass table, one slot per VM index + 1
	tmp    pairList // ordering temporary
	views  [2][][]uint64
}

func (pp *pairPool) get() int32 {
	if n := len(pp.free); n > 0 {
		id := pp.free[n-1]
		pp.free = pp.free[:n-1]
		return id
	}
	pp.chunks = append(pp.chunks, make([]uint64, pairChunk))
	return int32(len(pp.chunks) - 1)
}

// pairList is one score level's pairs: a chain of pool chunks, full but
// for the last.
type pairList struct {
	ids  []int32
	n    int
	tail []uint64 // the last chunk, while it has room
}

func (l *pairList) push(pp *pairPool, key uint64) {
	if l.n&pairChunkMask == 0 {
		l.grow(pp)
	}
	l.tail[l.n&pairChunkMask] = key
	l.n++
}

func (l *pairList) grow(pp *pairPool) {
	id := pp.get()
	l.ids = append(l.ids, id)
	l.tail = pp.chunks[id]
}

// truncate keeps the first n keys and returns the chunks past them to
// the pool.
func (l *pairList) truncate(pp *pairPool, n int) {
	keep := (n + pairChunkMask) >> pairChunkBits
	pp.free = append(pp.free, l.ids[keep:]...)
	l.ids = l.ids[:keep]
	l.n = n
	l.tail = nil
	if n&pairChunkMask != 0 {
		l.tail = pp.chunks[l.ids[keep-1]]
	}
}

// chunk returns l's ci-th chunk, cut to the keys it holds.
func (l *pairList) chunk(pp *pairPool, ci int) []uint64 {
	return pp.chunks[l.ids[ci]][:min(pairChunk, l.n-ci<<pairChunkBits)]
}

// view lists the chunk slices backing l, for indexed access.
func (l *pairList) view(pp *pairPool, buf [][]uint64) [][]uint64 {
	buf = buf[:0]
	for _, id := range l.ids {
		buf = append(buf, pp.chunks[id])
	}
	return buf
}

// keepLive drops every pair with an endpoint already matched. Such a
// pair is a no-op wherever the greedy pass would meet it, so dropping
// it before ordering changes no decision.
func (l *pairList) keepLive(pp *pairPool, used []bool) {
	w := 0
	for ci := range l.ids {
		for _, pk := range l.chunk(pp, ci) {
			if used[pk>>32] || used[pk&pairLow] {
				continue
			}
			pp.chunks[l.ids[w>>pairChunkBits]][w&pairChunkMask] = pk
			w++
		}
	}
	l.truncate(pp, w)
}

// order sorts l's keys ascending, which is (a, b) order. Keys index n
// VMs. A single chunk is sorted in place; longer lists take two stable
// counting passes over the VM index — by b into the pool temporary,
// then by a back into l — so no key is ever compared.
func (l *pairList) order(pp *pairPool, n int) {
	if l.n <= pairChunk {
		if l.n > 1 {
			slices.Sort(pp.chunks[l.ids[0]][:l.n])
		}
		return
	}
	if cap(pp.cnt) < n+1 {
		pp.cnt = make([]int32, n+1)
	}
	cnt := pp.cnt[:n+1]
	tmp := &pp.tmp
	for len(tmp.ids) < len(l.ids) {
		tmp.grow(pp)
	}
	tmp.n = l.n
	src := l.view(pp, pp.views[0])
	dst := tmp.view(pp, pp.views[1])
	countingPass(src, dst, l.n, cnt, 0)
	countingPass(dst, src, l.n, cnt, 32)
	pp.views[0], pp.views[1] = src[:0], dst[:0]
	tmp.truncate(pp, 0)
}

// countingPass stably scatters the first m keys of src into dst by the
// 32-bit field at shift.
func countingPass(src, dst [][]uint64, m int, cnt []int32, shift uint) {
	clear(cnt)
	for ci, ch := range src {
		for _, pk := range ch[:min(pairChunk, m-ci<<pairChunkBits)] {
			cnt[int(pk>>shift&pairLow)+1]++
		}
	}
	for k := 1; k < len(cnt); k++ {
		cnt[k] += cnt[k-1]
	}
	for ci, ch := range src {
		for _, pk := range ch[:min(pairChunk, m-ci<<pairChunkBits)] {
			d := &cnt[pk>>shift&pairLow]
			dst[*d>>pairChunkBits][*d&pairChunkMask] = pk
			*d++
		}
	}
}
