/* PULL-EXTEND's candidate pass as one loop over the rows of a block.
 *
 * The compiled twin of repro.core.kernels.extend_block: same inputs, same
 * (cand, row_ids, counts, sorted lens), element for element.  Loaded
 * through cffi in ABI mode, so this file includes nothing Python. */

#include <stdint.h>

typedef int64_t i64;

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
static i64 gallop(const i64 *a, i64 lo, i64 hi, i64 x)
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

/* One PULL-EXTEND step over n_rows rows of width columns.  Row r's k
 * extend vertices verts[r] are sorted by adjacency length lens[r]
 * (stably; the sorted lengths go to lens_out[r]); the smallest list,
 * cut to the symmetry window max(rows[gt]) < c < min(rows[lt]), gives
 * the candidates; each other list is probed once per candidate still
 * standing: through the slot table when there is one (a SHARED slot
 * searches the list), by galloping in the list otherwise, each such
 * probe counted in *probes.  Survivors must carry new_label (when
 * labels is not NULL) and differ from every column of the row.  Writes
 * counts[r] and, unless cand is NULL, the first cap survivors to cand /
 * row_ids; returns their number. */
i64 extend_rows(i64 n_rows, i64 width, const i64 *rows, i64 k,
                const i64 *verts, const i64 *lens, i64 *lens_out,
                const i64 *lt, i64 n_lt, const i64 *gt, i64 n_gt,
                const i64 *indptr, const i64 *indices, i64 n,
                const i64 *table, i64 bits,
                const i64 *labels, i64 new_label,
                i64 *cand, i64 *row_ids, i64 cap, i64 *counts,
                i64 *probes)
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
            lens_out[r * k + w] = len[w];
            pos[w] = indptr[v[w]];
            end[w] = indptr[v[w] + 1];
        }
        i64 start = pos[0], stop = end[0];
        if (n_gt) {
            i64 low = row[gt[0]];
            for (i64 j = 1; j < n_gt; j++)
                low = row[gt[j]] > low ? row[gt[j]] : low;
            start = lower_bound(indices, start, stop, low + 1);
        }
        if (n_lt) {
            i64 high = row[lt[0]];
            for (i64 j = 1; j < n_lt; j++)
                high = row[lt[j]] < high ? row[lt[j]] : high;
            stop = lower_bound(indices, start, stop, high);
        }
        i64 emitted = 0;
        for (i64 i = start; i < stop; i++) {
            i64 c = indices[i], w = 1;
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
                    searched++;
                    at = pos[w] = gallop(indices, pos[w], end[w], c);
                }
                if (at == end[w] || indices[at] != c)
                    break;
            }
            if (w < k || (labels && labels[c] != new_label))
                continue;
            for (w = 0; w < width && row[w] != c; w++)
                ;
            if (w < width)
                continue;
            if (cand && total + emitted < cap) {
                cand[total + emitted] = c;
                row_ids[total + emitted] = r;
            }
            emitted++;
        }
        counts[r] = emitted;
        total += emitted;
    }
    *probes = searched;
    return total;
}
