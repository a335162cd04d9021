/* The compiled loops of repro.core.kernels, one function each:
 *
 *   extend_rows     PULL-EXTEND's candidate pass over a block of rows,
 *                   with its output rows and intersection ticks (and, for
 *                   BiGJoin's rounds, per-list survivor counts), the twin
 *                   of kernels.extend_block (and of extend_candidates);
 *   classify_reads  the LRBU fetch stage's pass over a step's extend
 *                   block, the twin of repro.core.cache.LRBUCache._classify;
 *   deal_items      the segmented snake deal of a step's item costs, the
 *                   twin of repro.core.stealing.distribute_to_workers;
 *   join_block      one block of the blocked hash join's key matches,
 *                   filtered and written out, the twin of kernels._join_block;
 *   combo_rows      the star baselines' combination builder, the twin of
 *                   repro.baselines.base.combo_rows.
 *
 * Each gives its numpy twin's arrays element for element.  Loaded through
 * cffi in ABI mode, so this file includes nothing Python; the callers
 * check every shape, position and index before they pass a pointer. */

#include <stdint.h>

typedef int64_t i64;

/* the helpers of extend_rows' two candidate loops: inlined into each,
 * or the compiler calls the probe search per probe and the loops slow */
#define INLINE static inline __attribute__((always_inline))

/* slot-table markers and hash, as in repro.graph.graph */
#define SHARED (-2)
#define GOLDEN 0x9E3779B97F4A7C15ULL

/* first position in a[lo, hi) holding a value >= x */
static i64 lower_bound(const i64 *a, i64 lo, i64 hi, i64 x)
{
    while (lo < hi) {
        i64 mid = lo + (hi - lo) / 2;
        if (a[mid] < x)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* lower_bound by doubling steps from lo: a row's candidates ascend, so a
 * list's cursor only moves forward */
INLINE i64 gallop(const i64 *a, i64 lo, i64 hi, i64 x)
{
    i64 step = 1;
    if (lo >= hi || a[lo] >= x)
        return lo;
    while (lo + step < hi && a[lo + step] < x) {
        lo += step;
        step <<= 1;
    }
    return lower_bound(a, lo + 1, lo + step < hi ? lo + step : hi, x);
}

/* The list at which candidate c fails, k when it is in each of lists
 * 1 .. k-1 of v: probed through the slot table when there is one (a
 * SHARED slot searches the list), by galloping in the list otherwise,
 * each such probe counted in *searched.  A list's cursor pos[w] only
 * moves forward, so the candidates must come in ascending order. */
INLINE i64 failed_at(i64 c, i64 k, const i64 *v, i64 *pos, const i64 *end,
                     const i64 *indices, i64 n, const i64 *table, i64 bits,
                     i64 *searched)
{
    i64 w = 1;
    for (; w < k; w++) {
        i64 at;
        if (table) {
            i64 key = v[w] * n + c;
            i64 held = table[((uint64_t)key * GOLDEN) >> (64 - bits)];
            if (held == key)
                continue;
            if (held != SHARED)
                break;
            at = lower_bound(indices, pos[w], end[w], c);
        } else {
            ++*searched;
            at = pos[w] = gallop(indices, pos[w], end[w], c);
        }
        if (at == end[w] || indices[at] != c)
            break;
    }
    return w;
}

/* Whether candidate c is kept past the lists: it carries new_label
 * (when labels is not NULL) and differs from every column of the row */
INLINE int kept(i64 c, const i64 *row, i64 width, const i64 *labels,
                i64 new_label)
{
    if (labels && labels[c] != new_label)
        return 0;
    for (i64 w = 0; w < width; w++)
        if (row[w] == c)
            return 0;
    return 1;
}

/* Survivor number at of a pass, candidate c of row r: unless cand is
 * NULL to cand / row_ids, unless out is NULL as the row then c to out
 * (width + 1 columns); nothing past cap */
INLINE void write_kept(i64 at, i64 c, i64 r, const i64 *row, i64 width,
                       i64 cap, i64 *cand, i64 *row_ids, i64 *out)
{
    if (at >= cap)
        return;
    if (cand) {
        cand[at] = c;
        row_ids[at] = r;
    }
    if (out) {
        i64 *o = out + at * (width + 1);
        for (i64 w = 0; w < width; w++)
            o[w] = row[w];
        o[width] = c;
    }
}

/* extend_rows' counting candidate loop over one row's whole smallest
 * list indices[start, stop): per list, how many candidates stand after
 * it (to survivors[0 .. k-1]); the survivors within low < c < high that
 * kept passes are written from position total on.  Returns their number.
 * A function of its own, so the windowed loop compiles as it would
 * alone. */
static __attribute__((noinline)) i64
count_row(const i64 *row, i64 r, i64 width, i64 k, const i64 *v, i64 *pos,
          const i64 *end, i64 start, i64 stop, const i64 *indices, i64 n,
          const i64 *table, i64 bits, const i64 *labels, i64 new_label,
          i64 low, i64 high, i64 total, i64 cap, i64 *cand, i64 *row_ids,
          i64 *out, i64 *survivors, i64 *searched)
{
    i64 failed[k + 1], emitted = 0;
    for (i64 w = 0; w <= k; w++)
        failed[w] = 0;
    for (i64 i = start; i < stop; i++) {
        i64 c = indices[i];
        i64 w = failed_at(c, k, v, pos, end, indices, n, table, bits,
                          searched);
        failed[w]++;
        if (w == k && low < c && c < high
                && kept(c, row, width, labels, new_label))
            write_kept(total + emitted++, c, r, row, width, cap, cand,
                       row_ids, out);
    }
    /* standing after list w: failed at a later list, or at none */
    i64 standing = 0;
    for (i64 w = k; w > 0; w--) {
        standing += failed[w];
        survivors[w - 1] = standing;
    }
    return emitted;
}

/* One PULL-EXTEND step over n_rows rows of width columns.  Row r's k
 * extend vertices verts[r] are sorted by adjacency length lens[r]
 * (stably; the sorted lengths go to lens_out[r] unless it is NULL); the
 * smallest list, cut to the symmetry window max(rows[gt]) < c <
 * min(rows[lt]), gives the candidates; each other list is probed once
 * per candidate still standing (failed_at), and the survivors are
 * filtered by kept.  Writes counts[r]; unless probe_ticks is NULL, the
 * row's intersection ticks len[0] * (intersect + sum of
 * probe_ticks[len[w]] over the other lists) to ticks[r]; and of the
 * first cap survivors, unless cand is NULL, the candidate and its row to
 * cand / row_ids, unless out is NULL, the row then the candidate to out
 * (width + 1 columns).  Unless survivors is NULL, the whole smallest
 * list is the candidates, survivors[r * k + w] counts those standing
 * after list w (w = 0: all of them), and the symmetry conditions filter
 * the survivors instead of cutting a window; that mode's candidate loop
 * is count_row's, so the windowed one carries no counting.  Returns the
 * number of survivors. */
i64 extend_rows(i64 n_rows, i64 width, const i64 *rows, i64 k,
                const i64 *verts, const i64 *lens, i64 *lens_out,
                const i64 *lt, i64 n_lt, const i64 *gt, i64 n_gt,
                const i64 *indptr, const i64 *indices, i64 n,
                const i64 *table, i64 bits,
                const i64 *labels, i64 new_label,
                const i64 *probe_ticks, i64 intersect, i64 *ticks,
                i64 *cand, i64 *row_ids, i64 *out, i64 cap, i64 *counts,
                i64 *survivors, i64 *probes)
{
    i64 v[k], len[k], pos[k], end[k];
    i64 total = 0, searched = 0;
    for (i64 r = 0; r < n_rows; r++) {
        const i64 *row = rows + r * width;
        for (i64 w = 0; w < k; w++) {
            i64 x = verts[r * k + w], l = lens[r * k + w], j = w;
            for (; j > 0 && len[j - 1] > l; j--) {
                v[j] = v[j - 1];
                len[j] = len[j - 1];
            }
            v[j] = x;
            len[j] = l;
        }
        for (i64 w = 0; w < k; w++) {
            if (lens_out)
                lens_out[r * k + w] = len[w];
            pos[w] = indptr[v[w]];
            end[w] = indptr[v[w] + 1];
        }
        if (probe_ticks) {
            i64 per = intersect;
            for (i64 w = 1; w < k; w++)
                per += probe_ticks[len[w]];
            ticks[r] = len[0] * per;
        }
        /* the symmetry window low < c < high */
        i64 low = INT64_MIN, high = INT64_MAX;
        for (i64 j = 0; j < n_gt; j++)
            low = row[gt[j]] > low ? row[gt[j]] : low;
        for (i64 j = 0; j < n_lt; j++)
            high = row[lt[j]] < high ? row[lt[j]] : high;
        i64 start = pos[0], stop = end[0], emitted = 0;
        if (!survivors) {
            if (n_gt)
                start = lower_bound(indices, start, stop, low + 1);
            if (n_lt)
                stop = lower_bound(indices, start, stop, high);
            for (i64 i = start; i < stop; i++) {
                i64 c = indices[i];
                if (failed_at(c, k, v, pos, end, indices, n, table, bits,
                              &searched) == k
                        && kept(c, row, width, labels, new_label))
                    write_kept(total + emitted++, c, r, row, width, cap, cand,
                               row_ids, out);
            }
        } else {
            emitted = count_row(row, r, width, k, v, pos, end, start, stop,
                                indices, n, table, bits, labels, new_label,
                                low, high, total, cap, cand, row_ids, out,
                                survivors + r * k, &searched);
        }
        counts[r] = emitted;
        total += emitted;
    }
    *probes = searched;
    return total;
}

/* A key classify_reads has met in its pass: what order[] holds for it
 * until the pass clears the marks */
#define SEEN (-2)

/* The LRBU fetch stage's pass over one stacked step's extend block.  Row
 * r of n_rows is machine machines[r]'s and its k cells are the vertices
 * verts[r * k ..]; a cell is a remote read when owner[v] is not the
 * row's machine.  entry and order are the cache's state, row m of stride
 * columns machine m's: entry > 0 is resident, order >= 0 is in S_free
 * (-1: sealed or absent).  Each remote read's key m * stride + v is
 * classified where it is first met and marked SEEN after: a resident key
 * is a hit of machine m (hits[m]) and, when it is in S_free, sealed
 * (order -1) and written to seal_m / seal_v; an absent key is a miss
 * (misses[m]) written to miss_m / miss_v.  Hits sealed before the pass
 * are written from the back of seal_m / seal_v, so the marks can be
 * cleared; the buffers hold one entry per cell.  Returns the number of
 * keys sealed and puts the number missed in *n_miss. */
i64 classify_reads(i64 n_rows, i64 k, const i64 *machines,
                   const i64 *verts, const i64 *owner, i64 stride,
                   const i64 *entry, i64 *order, i64 *hits, i64 *misses,
                   i64 *seal_m, i64 *seal_v, i64 *miss_m, i64 *miss_v,
                   i64 *n_miss)
{
    i64 sealed = 0, held = 0, missed = 0, cells = n_rows * k;
    for (i64 r = 0; r < n_rows; r++) {
        i64 m = machines[r];
        for (i64 w = 0; w < k; w++) {
            i64 x = verts[r * k + w], key = m * stride + x;
            if (owner[x] == m || order[key] == SEEN)
                continue;
            if (entry[key] == 0) {
                miss_m[missed] = m;
                miss_v[missed++] = x;
                misses[m]++;
            } else if (order[key] >= 0) {
                seal_m[sealed] = m;
                seal_v[sealed++] = x;
                hits[m]++;
            } else {
                held++;
                seal_m[cells - held] = m;
                seal_v[cells - held] = x;
                hits[m]++;
            }
            order[key] = SEEN;
        }
    }
    /* every mark back to -1: the sealed hits stay sealed, the misses
     * absent until admitted, the hits sealed before stay as they were */
    for (i64 i = 0; i < sealed; i++)
        order[seal_m[i] * stride + seal_v[i]] = -1;
    for (i64 i = cells - held; i < cells; i++)
        order[seal_m[i] * stride + seal_v[i]] = -1;
    for (i64 i = 0; i < missed; i++)
        order[miss_m[i] * stride + miss_v[i]] = -1;
    *n_miss = missed;
    return sealed;
}

/* The snake deal of n item costs over workers.  seg[i] numbers item i's
 * batch (of batches), non-decreasing, and each batch's costs come
 * heaviest first; the item at rank j of its batch goes to worker
 * j % workers on even laps j / workers and to workers - 1 - j % workers
 * on odd ones, and its cost is added to totals[seg[i] * workers +
 * worker].  Returns 0, or -1 as soon as seg leaves [0, batches) or
 * decreases (before it writes that item). */
i64 deal_items(i64 n, const i64 *costs, const i64 *seg, i64 batches,
               i64 workers, i64 *totals)
{
    i64 batch = 0, rank = 0, lap = 0;
    for (i64 i = 0; i < n; i++) {
        if (i == 0 || seg[i] != batch) {
            if (seg[i] < batch || seg[i] >= batches)
                return -1;
            batch = seg[i];
            rank = lap = 0;
        }
        i64 w = lap & 1 ? workers - 1 - rank : rank;
        totals[batch * workers + w] += costs[i];
        if (++rank == workers) {
            rank = 0;
            lap++;
        }
    }
    return 0;
}

/* One block of a hash join's key matches.  Probe row i (of n_probe rows
 * of probe_w columns) matches counts[i] build rows: build row
 * order[lo[i] + j] for j < counts[i].  The output row of a
 * pair has width columns, column o read from the build row's column
 * col[o] when from_build[o], from the probe row's otherwise; it is kept
 * if every test t holds: column test_a[t] < column test_b[t] when
 * test_less[t], column test_a[t] != column test_b[t] otherwise.  Writes
 * kept[i] per probe row and, unless out is NULL, the kept rows to out in
 * pair order; returns their number. */
i64 join_block(i64 n_probe, const i64 *probe, i64 probe_w,
               const i64 *counts, const i64 *lo,
               const i64 *build, i64 build_w, const i64 *order,
               i64 width, const i64 *from_build, const i64 *col,
               i64 n_tests, const i64 *test_a, const i64 *test_b,
               const i64 *test_less, i64 *kept, i64 *out)
{
    i64 total = 0;
    for (i64 i = 0; i < n_probe; i++) {
        const i64 *prow = probe + i * probe_w;
        i64 emitted = 0;
        for (i64 j = lo[i]; j < lo[i] + counts[i]; j++) {
            const i64 *brow = build + order[j] * build_w;
            i64 t = 0;
            for (; t < n_tests; t++) {
                i64 a = test_a[t], b = test_b[t];
                i64 x = from_build[a] ? brow[col[a]] : prow[col[a]];
                i64 y = from_build[b] ? brow[col[b]] : prow[col[b]];
                if (test_less[t] ? x >= y : x == y)
                    break;
            }
            if (t < n_tests)
                continue;
            if (out) {
                i64 *o = out + (total + emitted) * width;
                for (i64 w = 0; w < width; w++)
                    o[w] = from_build[w] ? brow[col[w]] : prow[col[w]];
            }
            emitted++;
        }
        kept[i] = emitted;
        total += emitted;
    }
    return total;
}

/* Star combinations.  Row r (prefix_w columns) has counts[r] candidates,
 * the next slice of cand.  For every nl-combination of them, in
 * lexicographic order of positions, and every pattern p (nl positions
 * into the combination), the output row is the prefix then leaf l =
 * combination[patterns[p * nl + l]]; it is kept if column cond_a[t] <
 * column cond_b[t] for every condition t.  Writes kept[r] per row and,
 * unless out is NULL, the first cap kept rows to out in input-row order;
 * returns their number. */
i64 combo_rows(i64 n_rows, const i64 *prefix, i64 prefix_w,
               const i64 *cand, const i64 *counts, i64 nl,
               i64 n_patterns, const i64 *patterns,
               i64 n_conds, const i64 *cond_a, const i64 *cond_b,
               i64 *kept, i64 *out, i64 cap)
{
    i64 width = prefix_w + nl, total = 0, off = 0;
    i64 pick[nl + 1], row[width + 1];
    for (i64 r = 0; r < n_rows; off += counts[r], r++) {
        i64 c = counts[r], emitted = 0;
        kept[r] = 0;
        if (c < nl)
            continue;
        for (i64 w = 0; w < prefix_w; w++)
            row[w] = prefix[r * prefix_w + w];
        for (i64 l = 0; l < nl; l++)
            pick[l] = l;
        for (;;) {
            for (i64 p = 0; p < n_patterns; p++) {
                for (i64 l = 0; l < nl; l++)
                    row[prefix_w + l] = cand[off + pick[patterns[p * nl + l]]];
                i64 t = 0;
                for (; t < n_conds && row[cond_a[t]] < row[cond_b[t]]; t++)
                    ;
                if (t < n_conds)
                    continue;
                if (out && total + emitted < cap) {
                    i64 *o = out + (total + emitted) * width;
                    for (i64 w = 0; w < width; w++)
                        o[w] = row[w];
                }
                emitted++;
            }
            /* the next combination: raise the last position that can
             * still rise, and restart every later one just above it */
            i64 l = nl - 1;
            while (l >= 0 && pick[l] == c - nl + l)
                l--;
            if (l < 0)
                break;
            pick[l]++;
            for (i64 m = l + 1; m < nl; m++)
                pick[m] = pick[m - 1] + 1;
        }
        kept[r] = emitted;
        total += emitted;
    }
    return total;
}
