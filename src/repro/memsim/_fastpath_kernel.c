/* Hot loop of the fast simulation engine.
 *
 * This is an exact transcription of MemoryHierarchy._step
 * (repro/memsim/hierarchy.py): a two-level inclusive write-back hierarchy
 * with true-LRU sets, physically-scattered L2 indexing, inclusion
 * back-invalidation, and a fully-associative LRU data TLB fed only page
 * transitions.  The Python engine owns all state as NumPy arrays (way
 * matrices, timestamp matrices, dirty bitmaps) and hands raw pointers to
 * this kernel, so cache contents stay inspectable from Python between
 * batches and counters stay bit-identical to the list-based reference.
 *
 * Two entry points share one per-batch body (run_batch):
 *  - process_batch runs one batch.  Live sinks call it once per emitted
 *    batch; they have no table to hand over, and building one per batch
 *    would cost more than the call it saves.
 *  - replay_batches runs a whole recorded trace in one call.  Its batch
 *    table (repro.memsim.events.BatchTable, built once per recording)
 *    holds each batch's lines and counts addresses, size and kind; it
 *    returns per-batch accesses, misses, writebacks and TLB-miss deltas,
 *    which the Python side folds into its counters with NumPy.
 *
 * LRU equivalence: the reference keeps each set as a Python list ordered
 * cold-to-hot (append on touch, pop(0) to evict).  Here every touch writes
 * a strictly increasing stamp from one global counter, so "argmin stamp"
 * is exactly the list's front element and empty slots (tag == -1) stand in
 * for a short list.  Set membership is position-free in both models.
 *
 * Build: cc -O2 -shared -fPIC _fastpath_kernel.c -o <cache>.so
 * (no libc beyond stdint; keep it freestanding-friendly).
 */

#include <stdint.h>

#define EMPTY (-1)
#define PAGE_HASH 0x9E3779B1ULL

/* ctx is a table of array base addresses, built once per hierarchy (one
 * pointer crosses the ctypes boundary per batch instead of eleven):
 *  0 l1_tags  1 l1_stamp  2 l1_dirty  3 l2_tags  4 l2_stamp  5 l2_dirty
 *  6 tlb_tags 7 tlb_stamp 8 params    9 state   10 out
 * params layout (int64):
 *  0 l1_mask   1 l1_ways   2 l2_mask   3 l2_ways
 *  4 l2_shift  5 l2_cover  6 page_scatter  7 page_shift
 *  8 tlb_shift 9 tlb_entries
 * state layout (int64, carried across calls):
 *  0 time  1 tlb_last_page  2 tlb_hits  3 tlb_misses
 * out layout (int64, per process_batch call):
 *  0 l1_misses  1 l2_misses  2 l1_writebacks  3 l2_writebacks
 * kind: 0 read, 1 write, 2 prefetch
 */

static void tlb_access(int64_t page, int64_t *tlb_tags, int64_t *tlb_stamp,
                       int64_t entries, int64_t *state)
{
    int64_t e, slot = -1, min_stamp;
    for (e = 0; e < entries; e++) {
        if (tlb_tags[e] == page) {
            tlb_stamp[e] = state[0]++;
            state[2]++; /* hits */
            return;
        }
    }
    state[3]++; /* misses */
    for (e = 0; e < entries; e++) {
        if (tlb_tags[e] == EMPTY) {
            slot = e;
            break;
        }
    }
    if (slot < 0) {
        slot = 0;
        min_stamp = tlb_stamp[0];
        for (e = 1; e < entries; e++) {
            if (tlb_stamp[e] < min_stamp) {
                min_stamp = tlb_stamp[e];
                slot = e;
            }
        }
    }
    tlb_tags[slot] = page;
    tlb_stamp[slot] = state[0]++;
}

/* The per-batch body: runs ``n`` line events of one kind and writes the
 * batch's miss and writeback counts to out[0..3]. */
static void run_batch(const int64_t *lines, int64_t n, int64_t kind,
                      int64_t *ctx, int64_t *out)
{
    int64_t *l1_tags = (int64_t *)ctx[0];
    int64_t *l1_stamp = (int64_t *)ctx[1];
    uint8_t *l1_dirty = (uint8_t *)ctx[2];
    int64_t *l2_tags = (int64_t *)ctx[3];
    int64_t *l2_stamp = (int64_t *)ctx[4];
    uint8_t *l2_dirty = (uint8_t *)ctx[5];
    int64_t *tlb_tags = (int64_t *)ctx[6];
    int64_t *tlb_stamp = (int64_t *)ctx[7];
    const int64_t *params = (const int64_t *)ctx[8];
    int64_t *state = (int64_t *)ctx[9];
    const int64_t l1_mask = params[0], l1_ways = params[1];
    const int64_t l2_mask = params[2], l2_ways = params[3];
    const int64_t l2_shift = params[4], l2_cover = params[5];
    const int64_t page_scatter = params[6], page_shift = params[7];
    const int64_t tlb_shift = params[8], tlb_entries = params[9];
    const int prefetch = kind == 2;
    const int is_write = kind == 1;
    int64_t l1m = 0, l2m = 0, l1wb = 0, l2wb = 0;
    int64_t i, w;

    for (i = 0; i < n; i++) {
        const int64_t line = lines[i];
        const int64_t base1 = (line & l1_mask) * l1_ways;
        int64_t way = -1;
        for (w = 0; w < l1_ways; w++) {
            if (l1_tags[base1 + w] == line) {
                way = w;
                break;
            }
        }
        if (way >= 0) {
            if (prefetch)
                continue; /* prefetch to a resident line: no state change */
            {
                const int64_t page = line >> tlb_shift;
                if (page != state[1]) {
                    tlb_access(page, tlb_tags, tlb_stamp, tlb_entries, state);
                    state[1] = page;
                }
            }
            l1_stamp[base1 + way] = state[0]++;
            if (is_write)
                l1_dirty[base1 + way] = 1;
            continue;
        }
        {
            const int64_t page = line >> tlb_shift;
            if (page != state[1]) {
                tlb_access(page, tlb_tags, tlb_stamp, tlb_entries, state);
                state[1] = page;
            }
        }
        /* L1 miss: evict (write back dirty victim into L2), then fill. */
        l1m++;
        {
            int64_t slot = -1;
            for (w = 0; w < l1_ways; w++) {
                if (l1_tags[base1 + w] == EMPTY) {
                    slot = w;
                    break;
                }
            }
            if (slot < 0) {
                int64_t min_stamp = l1_stamp[base1];
                slot = 0;
                for (w = 1; w < l1_ways; w++) {
                    if (l1_stamp[base1 + w] < min_stamp) {
                        min_stamp = l1_stamp[base1 + w];
                        slot = w;
                    }
                }
                if (l1_dirty[base1 + slot]) {
                    /* dirty victim: write back into its covering L2 line
                     * (resident by inclusion) without promoting it */
                    const int64_t victim_l2 = l1_tags[base1 + slot] >> l2_shift;
                    int64_t idx;
                    if (page_scatter) {
                        const uint64_t vpage =
                            (uint64_t)(victim_l2 >> page_shift);
                        idx = (int64_t)((((uint64_t)victim_l2) ^
                                         (vpage * PAGE_HASH)) &
                                        (uint64_t)l2_mask);
                    } else {
                        idx = victim_l2 & l2_mask;
                    }
                    l1wb++;
                    for (w = 0; w < l2_ways; w++) {
                        if (l2_tags[idx * l2_ways + w] == victim_l2) {
                            l2_dirty[idx * l2_ways + w] = 1;
                            break;
                        }
                    }
                }
            }
            l1_tags[base1 + slot] = line;
            l1_stamp[base1 + slot] = state[0]++;
            l1_dirty[base1 + slot] = (uint8_t)(is_write && !prefetch);
        }
        /* L2 demand access for the covering line. */
        {
            const int64_t l2_line = line >> l2_shift;
            int64_t idx, base2, slot2 = -1;
            if (page_scatter) {
                const uint64_t page2 = (uint64_t)(l2_line >> page_shift);
                idx = (int64_t)((((uint64_t)l2_line) ^ (page2 * PAGE_HASH)) &
                                (uint64_t)l2_mask);
            } else {
                idx = l2_line & l2_mask;
            }
            base2 = idx * l2_ways;
            for (w = 0; w < l2_ways; w++) {
                if (l2_tags[base2 + w] == l2_line) {
                    slot2 = w;
                    break;
                }
            }
            if (slot2 >= 0) {
                l2_stamp[base2 + slot2] = state[0]++;
                continue;
            }
            l2m++;
            for (w = 0; w < l2_ways; w++) {
                if (l2_tags[base2 + w] == EMPTY) {
                    slot2 = w;
                    break;
                }
            }
            if (slot2 < 0) {
                int64_t min_stamp = l2_stamp[base2];
                slot2 = 0;
                for (w = 1; w < l2_ways; w++) {
                    if (l2_stamp[base2 + w] < min_stamp) {
                        min_stamp = l2_stamp[base2 + w];
                        slot2 = w;
                    }
                }
                {
                    const int64_t victim2 = l2_tags[base2 + slot2];
                    int victim_dirty = l2_dirty[base2 + slot2];
                    /* Enforce inclusion: flush covered L1 granules. */
                    const int64_t gbase = victim2 << l2_shift;
                    int64_t g;
                    for (g = gbase; g < gbase + l2_cover; g++) {
                        const int64_t vb = (g & l1_mask) * l1_ways;
                        for (w = 0; w < l1_ways; w++) {
                            if (l1_tags[vb + w] == g) {
                                l1_tags[vb + w] = EMPTY;
                                if (l1_dirty[vb + w]) {
                                    l1_dirty[vb + w] = 0;
                                    l1wb++;
                                    victim_dirty = 1;
                                }
                                break;
                            }
                        }
                    }
                    if (victim_dirty)
                        l2wb++;
                }
            }
            l2_tags[base2 + slot2] = l2_line;
            l2_stamp[base2 + slot2] = state[0]++;
            l2_dirty[base2 + slot2] = 0;
        }
    }
    out[0] = l1m;
    out[1] = l2m;
    out[2] = l1wb;
    out[3] = l2wb;
}

/* One batch, counts to ctx's out array (the live-sink entry point). */
int64_t process_batch(const int64_t *lines, int64_t n, int64_t kind,
                      int64_t *ctx)
{
    run_batch(lines, n, kind, ctx, (int64_t *)ctx[10]);
    return 0;
}

/* A whole recorded trace in one call.  table holds one row per batch,
 * in trace order; results gets one row per batch:
 *  table   (int64): 0 lines address  1 counts address  2 events  3 kind
 *  results (int64): 0 accesses  1 l1_misses  2 l2_misses
 *                   3 l1_writebacks  4 l2_writebacks  5 tlb_misses
 * tlb_misses is the batch's own delta of the carried TLB miss count. */
int64_t replay_batches(const int64_t *table, int64_t n_batches, int64_t *ctx,
                       int64_t *results)
{
    const int64_t *state = (const int64_t *)ctx[9];
    int64_t b, i;
    for (b = 0; b < n_batches; b++) {
        const int64_t *row = table + 4 * b;
        const int64_t *counts = (const int64_t *)row[1];
        int64_t *res = results + 6 * b;
        const int64_t tlb_before = state[3];
        int64_t accesses = 0;
        for (i = 0; i < row[2]; i++)
            accesses += counts[i];
        run_batch((const int64_t *)row[0], row[2], row[3], ctx, res + 1);
        res[0] = accesses;
        res[5] = state[3] - tlb_before;
    }
    return 0;
}
