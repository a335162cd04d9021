/* The compiled loops of repro.core.kernels, five entry points:
 *
 *   extend_rows      PULL-EXTEND's candidate pass over a block of rows,
 *                    with its output rows and intersection ticks (and,
 *                    for BiGJoin's rounds, per-list survivor counts; for
 *                    a VERIFY step, each row's one candidate probed),
 *                    behind kernels.extend_block and extend_candidates;
 *   pull_extend_step one PULL-EXTEND step over an LRBU cache, extending
 *                    or VERIFY, and the only program of one: its static
 *                    passes classify_reads, admit_reads (with evict) and
 *                    release_pins update the arrays of
 *                    repro.core.cache.LRBUCache around extend_rows and
 *                    deal_items — behind LRBUCache.pull_extend, which
 *                    also files the pins a step hands back by a step of
 *                    no rows;
 *   deal_items       the segmented snake deal of a step's item costs,
 *                    behind repro.core.stealing.distribute_to_workers;
 *   join_block       one block of the blocked hash join's key matches,
 *                    filtered and written out, behind
 *                    kernels._join_block;
 *   combo_rows       the star baselines' combination builder, behind
 *                    repro.baselines.base.combo_rows.
 *
 * Each is the one program of its job in the package; the tests hold it
 * to its numpy reference in tests/reference_kernels.py, element for
 * element (the step's is the composition over the numpy fetch stage of
 * tests/reference_cache.py).  Loaded through cffi in ABI mode, so this
 * file includes nothing Python; the callers check every shape, position
 * and index before they pass a pointer (pull_extend_step checks its ids,
 * positions and buffer room itself, before it writes anything).
 *
 * Threads.  The library runs two loops as chunks on its own pool
 * (run_chunks): a counted extend_rows pass (out and cand NULL, so nothing
 * is written at a running offset) of THREAD_ROWS rows or more, as CHUNKS
 * contiguous chunks of rows — most of a counted step's intersect stage,
 * and BiGJoin's survivor rounds — and the same counted step's sort and
 * deal, a batch per chunk.  The caller runs chunks too, and waits only for
 * chunks a helper has claimed, so a helper that is not scheduled costs it
 * nothing (HUGE's workers likewise never wait on a peer that holds no
 * work).  The chunks do not depend on how many threads run them and every
 * result is per row, per batch or summed in chunk order, so one thread or
 * many give the same bytes.  The rest stays on the calling thread: the gather
 * and checks, so step_inputs refuses bad input before anything is
 * written; classification, admission, the lost-pin check and the
 * release, which change the cache in Algorithm 3's stamp order; and
 * every pass that writes rows.  Writing each chunk's rows at its
 * upper-bound offset and compacting them after touches pages past the
 * kept rows, which then stay resident: threading the materialising steps
 * so raised enum-pull's peak RSS by about 5 MB (67-71 to 72.6-74.4 MB);
 * only a count-then-write pass could thread them. */

#define _GNU_SOURCE /* sched_getaffinity, CPU_COUNT */
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdlib.h>
#include <time.h>

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
 * w .. k-1 of v: probed through the slot table when there is one (a
 * SHARED slot searches the list), by galloping in the list otherwise,
 * each such probe counted in *searched.  A list's cursor pos[w] only
 * moves forward, so the candidates must come in ascending order. */
INLINE i64 failed_at(i64 c, i64 w, i64 k, const i64 *v, i64 *pos,
                     const i64 *end, const i64 *indices, i64 n,
                     const i64 *table, i64 bits, i64 *searched)
{
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
 * NULL to cand / row_ids, unless out is NULL to out's row of out_w
 * columns, the row then (when out_w is width + 1) c; nothing past cap */
INLINE void write_kept(i64 at, i64 c, i64 r, const i64 *row, i64 width,
                       i64 out_w, i64 cap, i64 *cand, i64 *row_ids,
                       i64 *out)
{
    if (at >= cap)
        return;
    if (cand) {
        cand[at] = c;
        row_ids[at] = r;
    }
    if (out) {
        i64 *o = out + at * out_w;
        for (i64 w = 0; w < width; w++)
            o[w] = row[w];
        if (out_w > width)
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
        i64 w = failed_at(c, 1, k, v, pos, end, indices, n, table, bits,
                          searched);
        failed[w]++;
        if (w == k && low < c && c < high
                && kept(c, row, width, labels, new_label))
            write_kept(total + emitted++, c, r, row, width, width + 1, cap,
                       cand, row_ids, out);
    }
    /* standing after list w: failed at a later list, or at none */
    i64 standing = 0;
    for (i64 w = k; w > 0; w--) {
        standing += failed[w];
        survivors[w - 1] = standing;
    }
    return emitted;
}

/* The fewest rows a counted pass, or a counted step's deal, runs on the
 * pool with, and the chunks a counted pass is cut into (see the header) */
#define THREAD_ROWS 1024
#define CHUNKS 32

/* How long an idle helper polls for a job before it sleeps, in ns.  Steps
 * come a few hundred microseconds apart, so a helper woken from sleep
 * arrives after the caller has run most chunks itself; but a helper that
 * polls 1 ms slows the whole process (plan-bound's set-up by 35 ms) */
#define SPIN_NS 200000

/* The pool's job word: its generation above bit 32, its number of chunks
 * in bits 16-31 and the next chunk to claim in bits 0-15 */
#define CHUNK_BITS 16
#define CHUNK_MASK ((1u << CHUNK_BITS) - 1)

#if defined(__x86_64__) || defined(__i386__)
#define RELAX() __builtin_ia32_pause()
#else
#define RELAX() ((void)0)
#endif

typedef void chunk_fn(i64 c, void *arg);

/* The pool: CPU affinity - 1 helpers, started by the first job in the
 * process, and one caller at a time (busy).  fn and arg are the job's,
 * written only while busy is held and every chunk of the job before is
 * done */
static struct {
    _Atomic uint64_t job;
    _Atomic i64 done;   /* chunks of the job run to their end */
    atomic_int busy, sleepers;
    chunk_fn *fn;
    void *arg;
    int started;
    pthread_mutex_t lock;
    pthread_cond_t wake;
} pool = {.lock = PTHREAD_MUTEX_INITIALIZER, .wake = PTHREAD_COND_INITIALIZER};

static int claimable(uint64_t job)
{
    return (job & CHUNK_MASK) < (job >> CHUNK_BITS & CHUNK_MASK);
}

/* Claim the job's next chunk and run it; 0 when every chunk is claimed.
 * The claim's CAS acquires the job its caller published */
static int run_one(void)
{
    uint64_t job = atomic_load_explicit(&pool.job, memory_order_acquire);
    while (claimable(job))
        if (atomic_compare_exchange_weak_explicit(
                &pool.job, &job, job + 1, memory_order_acquire,
                memory_order_acquire)) {
            pool.fn((i64)(job & CHUNK_MASK), pool.arg);
            atomic_fetch_add_explicit(&pool.done, 1, memory_order_release);
            return 1;
        }
    return 0;
}

static i64 now_ns(void)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return t.tv_sec * 1000000000L + t.tv_nsec;
}

/* A helper: claims chunks while there are any, polls SPIN_NS for more,
 * then sleeps until a job is published.  It counts itself in sleepers
 * before it looks at the job word, so a caller that publishes after the
 * look sees the count and wakes it */
static void *helper(void *unused)
{
    (void)unused;
    for (i64 idle = now_ns();;) {
        if (run_one()) {
            idle = now_ns();
        } else if (now_ns() - idle < SPIN_NS) {
            RELAX();
        } else {
            pthread_mutex_lock(&pool.lock);
            atomic_fetch_add(&pool.sleepers, 1);
            while (!claimable(atomic_load(&pool.job)))
                pthread_cond_wait(&pool.wake, &pool.lock);
            atomic_fetch_sub(&pool.sleepers, 1);
            pthread_mutex_unlock(&pool.lock);
            idle = now_ns();
        }
    }
    return NULL;
}

/* A fork()ed child has none of its parent's helpers, and a parent's
 * thread may have held busy or the lock: the pool starts afresh */
static void forked(void)
{
    pool.started = 0;
    atomic_store(&pool.busy, 0);
    atomic_store(&pool.sleepers, 0);
    atomic_store(&pool.job, 0);
    pthread_mutex_init(&pool.lock, NULL);
    pthread_cond_init(&pool.wake, NULL);
}

/* CPU affinity - 1 detached helpers (as many as start), every signal
 * blocked in them, so signals stay the interpreter's main thread's */
static void start_helpers(void)
{
    static int registered;
    cpu_set_t cpus;
    sigset_t all, old;
    pthread_t thread;
    int want = sched_getaffinity(0, sizeof cpus, &cpus) ? 0
               : CPU_COUNT(&cpus) - 1;
    if (!registered)
        registered = !pthread_atfork(NULL, NULL, forked);
    pool.started = 1;
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &old);
    for (; want > 0 && !pthread_create(&thread, NULL, helper, NULL); want--)
        pthread_detach(thread);
    pthread_sigmask(SIG_SETMASK, &old, NULL);
}

/* fn(c, arg) for every chunk c below n, on the pool when it is free: the
 * caller publishes the job, wakes any sleeping helper, claims chunks
 * itself, and once all are claimed waits only for those helpers hold.
 * A caller that finds the pool busy (another thread's job) runs its
 * chunks alone, in order */
static void run_chunks(i64 n, chunk_fn *fn, void *arg)
{
    int free_pool = 0;
    if (n < 2 || n > CHUNK_MASK
            || !atomic_compare_exchange_strong(&pool.busy, &free_pool, 1)) {
        for (i64 c = 0; c < n; c++)
            fn(c, arg);
        return;
    }
    if (!pool.started)
        start_helpers();
    pool.fn = fn;
    pool.arg = arg;
    atomic_store_explicit(&pool.done, 0, memory_order_relaxed);
    uint64_t gen = (atomic_load_explicit(&pool.job, memory_order_relaxed)
                    >> 32) + 1;
    atomic_store(&pool.job, gen << 32 | (uint64_t)n << CHUNK_BITS);
    if (atomic_load(&pool.sleepers)) {
        pthread_mutex_lock(&pool.lock);
        pthread_cond_broadcast(&pool.wake);
        pthread_mutex_unlock(&pool.lock);
    }
    while (run_one())
        ;
    for (int spins = 0;
         atomic_load_explicit(&pool.done, memory_order_acquire) < n; spins++)
        if (spins < 1000)
            RELAX();
        else
            sched_yield();
    atomic_store_explicit(&pool.busy, 0, memory_order_release);
}

/* extend_rows over its rows r0 .. r1 - 1, the searched probes to
 * *probes.  Returns the number of survivors. */
static i64 extend_range(i64 r0, i64 r1, i64 width,
                        const i64 *rows, i64 k, const i64 *verts,
                        const i64 *lens, const i64 *lt, i64 n_lt,
                        const i64 *gt, i64 n_gt, const i64 *indptr,
                        const i64 *indices, i64 n, const i64 *table, i64 bits,
                        const i64 *labels, i64 new_label, i64 verify,
                        const i64 *probe_ticks, i64 intersect, i64 *ticks,
                        i64 *cand, i64 *row_ids, i64 *out, i64 cap,
                        i64 *counts, i64 *survivors, i64 *probes)
{
    i64 v[k], len[k], pos[k], end[k];
    i64 total = 0, searched = 0;
    for (i64 r = r0; r < r1; r++) {
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
            const i64 *at = indptr + v[w];
            pos[w] = at[0];
            end[w] = at[1];
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
        if (verify >= 0) {
            i64 c = row[verify];
            if (failed_at(c, 0, k, v, pos, end, indices, n, table, bits,
                          &searched) == k
                    && (!labels || labels[c] == new_label))
                write_kept(total + emitted++, c, r, row, width, width, cap,
                           cand, row_ids, out);
        } else if (!survivors) {
            if (n_gt)
                start = lower_bound(indices, start, stop, low + 1);
            if (n_lt)
                stop = lower_bound(indices, start, stop, high);
            for (i64 i = start; i < stop; i++) {
                i64 c = indices[i];
                if (failed_at(c, 1, k, v, pos, end, indices, n, table, bits,
                              &searched) == k
                        && kept(c, row, width, labels, new_label))
                    write_kept(total + emitted++, c, r, row, width, width + 1,
                               cap, cand, row_ids, out);
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

/* extend_rows' arguments, and per chunk of its rows the survivors and
 * searched probes */
struct extend_pass {
    const i64 *rows, *verts, *lens, *lt, *gt, *indptr, *indices, *table,
        *labels, *probe_ticks;
    i64 *ticks, *cand, *row_ids, *out, *counts, *survivors;
    i64 n_rows, width, k, n_lt, n_gt, n, bits, new_label, verify, intersect,
        cap, chunks, found[CHUNKS], searched[CHUNKS];
};

/* extend_range over chunk c of a pass's rows */
static void extend_chunk(i64 c, void *arg)
{
    struct extend_pass *p = arg;
    p->found[c] = extend_range(
        p->n_rows * c / p->chunks, p->n_rows * (c + 1) / p->chunks, p->width,
        p->rows, p->k, p->verts, p->lens, p->lt, p->n_lt, p->gt, p->n_gt,
        p->indptr, p->indices, p->n, p->table, p->bits, p->labels,
        p->new_label, p->verify, p->probe_ticks, p->intersect, p->ticks,
        p->cand, p->row_ids, p->out, p->cap, p->counts, p->survivors,
        &p->searched[c]);
}

/* One PULL-EXTEND step over n_rows rows of width columns.  Row r's k
 * extend vertices verts[r] are sorted by adjacency length lens[r]
 * (stably); the smallest list, cut to the symmetry window max(rows[gt])
 * < c < min(rows[lt]), gives the candidates; each other list is probed once
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
 * is count_row's, so the windowed one carries no counting.  When verify
 * is a column (a VERIFY step; -1 otherwise), a row's one candidate is
 * its own vertex there, probed in every list and kept when it is in
 * each and carries new_label, and a kept row goes to out as it is
 * (width columns); the window, lt and gt play no part.  A counted pass
 * of THREAD_ROWS rows or more runs its chunks on the pool.  Returns the
 * number of survivors. */
i64 extend_rows(i64 n_rows, i64 width, const i64 *rows, i64 k,
                const i64 *verts, const i64 *lens, const i64 *lt,
                i64 n_lt, const i64 *gt, i64 n_gt, const i64 *indptr,
                const i64 *indices, i64 n, const i64 *table, i64 bits,
                const i64 *labels, i64 new_label, i64 verify,
                const i64 *probe_ticks, i64 intersect, i64 *ticks,
                i64 *cand, i64 *row_ids, i64 *out, i64 cap, i64 *counts,
                i64 *survivors, i64 *probes)
{
    struct extend_pass p = {
        rows, verts, lens, lt, gt, indptr, indices, table, labels,
        probe_ticks, ticks, cand, row_ids, out, counts, survivors,
        n_rows, width, k, n_lt, n_gt, n, bits, new_label, verify, intersect,
        cap, !out && !cand && n_rows >= THREAD_ROWS ? CHUNKS : 1, {0}, {0}};
    i64 total = 0;
    run_chunks(p.chunks, extend_chunk, &p);
    *probes = 0;
    for (i64 c = 0; c < p.chunks; c++) {
        total += p.found[c];
        *probes += p.searched[c];
    }
    return total;
}

/* A key classify_reads has met in its pass: what order[] holds for it
 * until the pass clears the marks */
#define SEEN (-2)

/* The columns of a machine's row of the LRBU cache's queue state, as in
 * repro.core.cache: S_free is queue[head, tail) with its stamps, stamp is
 * the next stamp to give, size the occupancy in ids, evicted and overflow
 * the machine's eviction count and worst overflow past capacity */
enum { HEAD, TAIL, STAMP, SIZE, EVICTED, OVERFLOW, QUEUE_STATE };

/* The LRBU fetch stage's pass over one stacked step's extend block.  Row
 * r of n_rows is machine machines[r]'s and its k cells are the vertices
 * verts[r * k ..]; a cell is a remote read when owner[v] is not the
 * row's machine.  entry and order are the cache's state, row m of stride
 * columns machine m's: entry > 0 is resident, order >= 0 is in S_free
 * (-1: sealed or absent).  Each remote read's key m * stride + v is
 * classified where it is first met and marked SEEN after: a resident key
 * is a hit of machine m (hits[m]) and, when it is in S_free, sealed
 * (order -1) and written to pins; an absent key is a miss (misses[m])
 * written to miss.  Hits sealed before the pass are written from the
 * back of pins, so the marks can be cleared; pins and miss hold one
 * entry per cell.  Returns the number of keys sealed and puts the number
 * missed in *n_miss. */
static i64 classify_reads(i64 n_rows, i64 k, const i64 *machines,
                          const i64 *verts, const i64 *owner, i64 stride,
                          const i64 *entry, i64 *order, i64 *hits,
                          i64 *misses, i64 *pins, i64 *miss, i64 *n_miss)
{
    i64 sealed = 0, held = 0, missed = 0, cells = n_rows * k;
    for (i64 r = 0; r < n_rows; r++) {
        i64 m = machines[r];
        for (i64 w = 0; w < k; w++) {
            i64 x = verts[r * k + w], key = m * stride + x;
            if (owner[x] == m || order[key] == SEEN)
                continue;
            if (entry[key] == 0) {
                miss[missed++] = key;
                misses[m]++;
            } else if (order[key] >= 0) {
                pins[sealed++] = key;
                hits[m]++;
            } else {
                pins[cells - ++held] = key;
                hits[m]++;
            }
            order[key] = SEEN;
        }
    }
    /* every mark back to -1: the sealed hits stay sealed, the misses
     * absent until admitted, the hits sealed before stay as they were */
    for (i64 i = 0; i < sealed; i++)
        order[pins[i]] = -1;
    for (i64 i = cells - held; i < cells; i++)
        order[pins[i]] = -1;
    for (i64 i = 0; i < missed; i++)
        order[miss[i]] = -1;
    *n_miss = missed;
    return sealed;
}

/* Algorithm 3's eviction on machine m's row: shed the live entries at
 * the head of its S_free, stale ones (order no longer the entry's stamp)
 * skipped, until excess ids are freed or S_free is empty */
static void evict(i64 *st, const i64 *queue, const i64 *stamps, i64 *entry,
                  i64 *order, i64 excess)
{
    while (excess > 0 && st[HEAD] < st[TAIL]) {
        i64 p = st[HEAD]++, v = queue[p];
        if (order[v] != stamps[p])
            continue;
        excess -= entry[v];
        st[SIZE] -= entry[v];
        st[EVICTED]++;
        entry[v] = 0;
        order[v] = -1;
    }
}

/* Admit the n distinct absent keys miss[i] = m * stride + v, entry i
 * occupying sizes[i] ids, into a cache of rows machines: per machine the
 * sizes are summed into incoming[m]; unless capacity is negative (no
 * bound), the shortest live prefix of S_free whose sizes reach size +
 * incoming - capacity is evicted and the overflow past capacity kept at
 * its worst; then the entries are written and their keys pinned at
 * pins[0 .. n). */
static void admit_reads(i64 n, const i64 *miss, const i64 *sizes, i64 rows,
                        i64 stride, i64 capacity, i64 *entry, i64 *order,
                        const i64 *queue, const i64 *stamps, i64 qcap,
                        i64 *state, i64 *incoming, i64 *pins)
{
    for (i64 m = 0; m < rows; m++)
        incoming[m] = 0;
    for (i64 i = 0; i < n; i++)
        incoming[miss[i] / stride] += sizes[i];
    for (i64 m = 0; m < rows; m++) {
        i64 *st = state + m * QUEUE_STATE;
        if (incoming[m] == 0)
            continue;
        if (capacity >= 0) {
            evict(st, queue + m * qcap, stamps + m * qcap,
                  entry + m * stride, order + m * stride,
                  st[SIZE] + incoming[m] - capacity);
            if (st[SIZE] + incoming[m] - capacity > st[OVERFLOW])
                st[OVERFLOW] = st[SIZE] + incoming[m] - capacity;
        }
        st[SIZE] += incoming[m];
    }
    for (i64 i = 0; i < n; i++) {
        entry[miss[i]] = sizes[i];
        pins[i] = miss[i];
    }
}

/* n keys below top in ascending order, by 11-bit digits from the lowest;
 * tmp holds n */
static void sort_keys(i64 *keys, i64 *tmp, i64 n, i64 top)
{
    i64 *from = keys, *to = tmp;
    for (int shift = 0; shift < 63 && (top - 1) >> shift > 0; shift += 11) {
        i64 count[2049] = {0};
        for (i64 i = 0; i < n; i++)
            count[((from[i] >> shift) & 2047) + 1]++;
        for (int d = 0; d < 2048; d++)
            count[d + 1] += count[d];
        for (i64 i = 0; i < n; i++)
            to[count[(from[i] >> shift) & 2047]++] = from[i];
        i64 *swap = from;
        from = to;
        to = swap;
    }
    if (from != keys)
        for (i64 i = 0; i < n; i++)
            keys[i] = from[i];
}

/* The n costs of one batch, heaviest first, to sorted: an LSD radix sort
 * by bytes of their distance below the heaviest, passes over bytes that
 * every cost shares skipped; tmp holds n */
static void sort_heaviest_first(const i64 *costs, i64 *sorted, i64 *tmp,
                                i64 n)
{
    i64 top = INT64_MIN, low = INT64_MAX;
    for (i64 i = 0; i < n; i++) {
        top = costs[i] > top ? costs[i] : top;
        low = costs[i] < low ? costs[i] : low;
    }
    i64 *from = sorted, *to = tmp;
    for (i64 i = 0; i < n; i++)
        from[i] = top - costs[i];
    for (int shift = 0; shift < 63 && (top - low) >> shift > 0; shift += 8) {
        i64 count[257] = {0};
        for (i64 i = 0; i < n; i++)
            count[((from[i] >> shift) & 255) + 1]++;
        if (count[((from[0] >> shift) & 255) + 1] == n)
            continue;
        for (int d = 0; d < 256; d++)
            count[d + 1] += count[d];
        for (i64 i = 0; i < n; i++)
            to[count[(from[i] >> shift) & 255]++] = from[i];
        i64 *swap = from;
        from = to;
        to = swap;
    }
    for (i64 i = 0; i < n; i++)
        sorted[i] = top - from[i];
}

/* Machine m's S_free moved to the front of its queue row, stale entries
 * and the evicted head dropped */
static void compact(i64 *st, i64 *queue, i64 *stamps, const i64 *order)
{
    i64 kept = 0;
    for (i64 p = st[HEAD]; p < st[TAIL]; p++)
        if (order[queue[p]] == stamps[p]) {
            queue[kept] = queue[p];
            stamps[kept++] = stamps[p];
        }
    st[HEAD] = 0;
    st[TAIL] = kept;
}

/* Algorithm 3's release of the n pinned keys m * stride + v (distinct,
 * below rows * stride): sorted (pins holds 2n: the keys, then room to
 * sort them), then each machine's filed at the tail of its S_free in
 * ascending id order, each with the machine's next stamp, which order
 * takes.  A machine whose queue row of qcap cannot take its keys is
 * compacted first; if the compacted row would then be over half full,
 * nothing is filed and the capacity needed (twice that) is returned, to
 * file with the rows grown.  Returns 0 once filed. */
static i64 release_pins(i64 n, i64 *pins, i64 rows, i64 stride, i64 *order,
                        i64 *queue, i64 *stamps, i64 qcap, i64 *state)
{
    i64 need = 0, count[rows];
    for (i64 m = 0; m < rows; m++)
        count[m] = 0;
    for (i64 i = 0; i < n; i++)
        count[pins[i] / stride]++;
    for (i64 m = 0; m < rows; m++) {
        i64 *st = state + m * QUEUE_STATE;
        if (count[m] == 0 || st[TAIL] + count[m] <= qcap)
            continue;
        compact(st, queue + m * qcap, stamps + m * qcap, order + m * stride);
        i64 want = 2 * (st[TAIL] + count[m]);
        if (want > qcap && want > need)
            need = want;
    }
    if (need)
        return need;
    sort_keys(pins, pins + n, n, rows * stride);
    for (i64 i = 0; i < n; i++) {
        i64 m = pins[i] / stride, *st = state + m * QUEUE_STATE;
        i64 p = m * qcap + st[TAIL]++;
        queue[p] = pins[i] - m * stride;
        stamps[p] = st[STAMP];
        order[pins[i]] = st[STAMP]++;
    }
    return 0;
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

/* A step's per-batch deal: the batches' item costs and starts, the
 * items' batch numbers, the sort's keys and radix buffer, the totals */
struct deal_pass {
    const i64 *ticks, *starts, *seg;
    i64 *keys, *tmp, *totals, runs, workers;
};

/* Batch b of a deal sorted heaviest first in its own slice of keys and
 * tmp, and dealt into its own row of totals */
static void deal_batch(i64 b, void *arg)
{
    struct deal_pass *d = arg;
    i64 a = d->starts[b], m = d->starts[b + 1] - a;
    sort_heaviest_first(d->ticks + a, d->keys + a, d->tmp + a, m);
    deal_items(m, d->keys + a, d->seg + a, d->runs, d->workers, d->totals);
}

/* The weights pull_extend_step charges, by position in its weights
 * array: the fetch stage's ticks per distinct remote read (contains +
 * seal) and per id admitted, the access penalty per remote read (copy
 * per id of the entry, then lock and LRU update), the intersection's
 * tick per element of the smallest list, and the emit ticks per kept
 * row */
enum { SEAL, INSERT, COPY, ACCESS, INTERSECT, EMIT, WEIGHTS };

/* What pull_extend_step reports besides its arrays, by position in its
 * result array: the rows kept, the searched probes, the keys still
 * pinned when it returns and the keys lost */
enum { KEPT, PROBES, PINNED, LOST, RESULTS };

/* pull_extend_step's gather and checks, before the step writes anything
 * the caller sees: the step's extend block rows[r][ext[w]] to verts and
 * its adjacency lengths to lens (n_ext per row); 0 when an input is
 * outside what the step indexes or a buffer too short (its comment says
 * which), else 1 */
static int step_inputs(i64 n_rows, i64 width, const i64 *rows,
                       const i64 *machines, i64 k, i64 n_ext, const i64 *ext,
                       i64 verify, const i64 *lt, i64 n_lt, const i64 *gt,
                       i64 n_gt, const i64 *indptr, i64 n, i64 n_probe_ticks,
                       i64 cache_rows, i64 stride, const i64 *pins,
                       i64 n_pins, i64 pins_cap, i64 workers, i64 steal,
                       const i64 *out, i64 cap, i64 n_totals, i64 *verts,
                       i64 *lens)
{
    if (n_rows < 0 || width < 1 || k < 1 || k > cache_rows || n_ext < 1
            || stride < n || workers < 1 || n_pins < 0
            || pins_cap / 2 < n_pins + n_rows * n_ext
            || verify < -1 || verify >= width)
        return 0;
    for (i64 j = 0; j < n_ext; j++)
        if (ext[j] < 0 || ext[j] >= width)
            return 0;
    for (i64 j = 0; j < n_lt; j++)
        if (lt[j] < 0 || lt[j] >= width)
            return 0;
    for (i64 j = 0; j < n_gt; j++)
        if (gt[j] < 0 || gt[j] >= width)
            return 0;
    for (i64 i = 0; i < n_pins; i++)
        if (pins[i] < 0 || pins[i] / stride >= cache_rows)
            return 0;
    i64 runs = 0, need = 0;
    for (i64 r = 0; r < n_rows; r++) {
        const i64 *row = rows + r * width;
        if (machines[r] < 0 || machines[r] >= k)
            return 0;
        if (r == 0 || machines[r] != machines[r - 1]) {
            runs++;
            if (!steal && row[0] < 0)
                return 0;
        }
        if (verify >= 0 && (row[verify] < 0 || row[verify] >= n))
            return 0;
        i64 least = INT64_MAX;
        for (i64 w = 0; w < n_ext; w++) {
            i64 v = row[ext[w]];
            if (v < 0 || v >= n)
                return 0;
            i64 l = indptr[v + 1] - indptr[v];
            if (l < 0 || l >= n_probe_ticks)
                return 0;
            verts[r * n_ext + w] = v;
            lens[r * n_ext + w] = l;
            least = l < least ? l : least;
        }
        /* a VERIFY row keeps itself or nothing */
        need += verify >= 0 ? 1 : least;
    }
    return runs * workers <= n_totals && (!out || need <= cap);
}

/* One PULL-EXTEND step over an LRBU cache (Algorithm 4's fetch stage and
 * intersect stage, then the step's worker deal and Algorithm 3's
 * release), in one call.  The step is n_rows rows of width columns, row
 * r machine machines[r]'s (below k); its extend block is the n_ext
 * columns ext of each row, gathered with their adjacency lengths (from
 * indptr) by step_inputs; a run of rows of one machine is one batch; a
 * VERIFY step's verify is the column its rows are verified at (below
 * width), an extending step's -1.  A step of no rows is the release of
 * the n_pins keys alone.
 * The cache is as classify_reads and release_pins read it: cache_rows rows of stride columns of entry and
 * order, qcap of queue and stamps, QUEUE_STATE of state, capacity ids
 * per machine (negative: no bound), n_pins keys pinned before the step
 * in pins (of pins_cap, at least twice n_pins plus a cell each).
 *   1. classify_reads seals the step's resident remote reads; per
 *      machine the distinct hits and misses go to fetched[0 .. k) and
 *      fetched[k .. 2k);
 *   2. each miss is one vertex of a GetNbrs from its machine to the
 *      vertex's owner: pulls[m * k + o] counts machine m's to owner o and
 *      pulls[k * k + m * k + o] the ids their responses carry (1 +
 *      degree each);
 *   3. admit_reads admits the misses, evicting, and fetched[2k .. 3k)
 *      gets each machine's fetch ticks, (hits + misses) * weights[SEAL]
 *      + ids admitted * weights[INSERT]; a key the step pinned that is
 *      not resident now is lost: the step stops, with the lost ids after
 *      the pinned keys in pins, and returns -2;
 *   4. extend_rows runs the candidate pass (verify / lt / gt / labels /
 *      new_label / table / probe_ticks as it reads them), the kept rows
 *      to out unless it is NULL (cap rows of width + 1 columns, width for
 *      a VERIFY step) and each row's count to counts; each row's ticks
 *      are its intersection ticks plus, per remote cell, weights[COPY] *
 *      (length + 1) + weights[ACCESS], plus counts[r] * weights[EMIT];
 *   5. per batch, deal_items deals the ticks heaviest first over workers
 *      when steal (on the pool when counted, from THREAD_ROWS rows), else
 *      all of them to worker rows[first][0] % workers, into totals (a row
 *      of workers per batch);
 *   6. release_pins files every pinned key by ascending id; when a queue
 *      row is too short the keys stay pinned and the capacity needed is
 *      returned.
 * result gets the rows kept, the probes searched, the keys still pinned
 * and the keys lost.  Returns 0 when done, the queue capacity needed,
 * -2 when a key was lost, -3 when scratch memory was not to be had, or
 * -1 before it writes anything when an input is outside what it indexes
 * or a buffer too short (step_inputs). */
i64 pull_extend_step(i64 n_rows, i64 width, const i64 *rows,
                     const i64 *machines, i64 k, i64 n_ext, const i64 *ext,
                     const i64 *lt, i64 n_lt, const i64 *gt, i64 n_gt,
                     const i64 *indptr, const i64 *indices, i64 n,
                     const i64 *table, i64 bits, const i64 *owner,
                     const i64 *labels, i64 new_label, i64 verify,
                     const i64 *probe_ticks, i64 n_probe_ticks,
                     const i64 *weights, i64 cache_rows, i64 stride,
                     i64 capacity, i64 *entry, i64 *order, i64 *queue,
                     i64 *stamps, i64 qcap, i64 *state, i64 *pins,
                     i64 n_pins, i64 pins_cap, i64 workers, i64 steal,
                     i64 *out, i64 cap, i64 *counts, i64 *ticks,
                     i64 *totals, i64 n_totals, i64 *fetched, i64 *pulls,
                     i64 *result)
{
    if (n_rows < 0 || n_ext < 1 || k < 1)
        return -1;
    i64 cells = n_rows * n_ext;
    /* scratch: the extend block and its lengths, the misses and their
     * sizes, the admitted ids per machine, and the deal's sort keys,
     * their radix buffer, batch numbers and batch starts */
    i64 *verts = malloc((size_t)(4 * cells + k + 4 * n_rows + 2)
                        * sizeof(i64));
    if (!verts)
        return -3;
    i64 *lens = verts + cells, *miss = lens + cells, *sizes = miss + cells;
    i64 *incoming = sizes + cells, *keys = incoming + k, *tmp = keys + n_rows;
    i64 *seg = tmp + n_rows, *starts = seg + n_rows;
    if (!step_inputs(n_rows, width, rows, machines, k, n_ext, ext, verify,
                     lt, n_lt, gt, n_gt, indptr, n, n_probe_ticks, cache_rows,
                     stride, pins, n_pins, pins_cap, workers, steal, out, cap,
                     n_totals, verts, lens)) {
        free(verts);
        return -1;
    }
    i64 *hits = fetched, *misses = fetched + k, *fetch_ticks = fetched + 2 * k;
    for (i64 i = 0; i < 3 * k; i++)
        fetched[i] = 0;
    for (i64 i = 0; i < 2 * k * k; i++)
        pulls[i] = 0;
    for (i64 i = 0; i < RESULTS; i++)
        result[i] = 0;

    /* 1-3: the fetch stage */
    i64 n_miss, *step_pins = pins + n_pins;
    i64 sealed = classify_reads(n_rows, n_ext, machines, verts, owner,
                                stride, entry, order, hits, misses,
                                step_pins, miss, &n_miss);
    for (i64 i = 0; i < n_miss; i++) {
        i64 m = miss[i] / stride, v = miss[i] - m * stride;
        i64 pair = m * k + owner[v];
        sizes[i] = indptr[v + 1] - indptr[v] + 1;
        pulls[pair]++;
        pulls[k * k + pair] += sizes[i];
    }
    admit_reads(n_miss, miss, sizes, k, stride, capacity, entry, order,
                queue, stamps, qcap, state, incoming, step_pins + sealed);
    for (i64 m = 0; m < k; m++)
        fetch_ticks[m] = (hits[m] + misses[m]) * weights[SEAL]
                         + incoming[m] * weights[INSERT];
    i64 pinned = n_pins + sealed + n_miss, lost = 0;
    for (i64 i = n_pins; i < pinned; i++)
        if (entry[pins[i]] == 0)
            pins[pinned + lost++] = pins[i] % stride;
    result[PINNED] = pinned;
    result[LOST] = lost;
    if (lost) {
        free(verts);
        return -2;
    }

    /* 4: the intersect stage, each row's ticks completed */
    result[KEPT] = extend_rows(n_rows, width, rows, n_ext, verts, lens, lt,
                               n_lt, gt, n_gt, indptr, indices, n,
                               table, bits, labels, new_label, verify,
                               probe_ticks, weights[INTERSECT], ticks, NULL,
                               NULL, out, out ? cap : 0, counts, NULL,
                               &result[PROBES]);
    int penalised = weights[COPY] || weights[ACCESS];
    i64 runs = 0;
    for (i64 r = 0; r < n_rows; r++) {
        const i64 *v = verts + r * n_ext, *l = lens + r * n_ext;
        for (i64 w = 0; penalised && w < n_ext; w++)
            if (owner[v[w]] != machines[r])
                ticks[r] += weights[COPY] * (l[w] + 1) + weights[ACCESS];
        ticks[r] += counts[r] * weights[EMIT];
        if (r == 0 || machines[r] != machines[r - 1])
            starts[runs++] = r;
        seg[r] = runs - 1;
    }
    starts[runs] = n_rows;

    /* 5: the worker deal, per batch */
    for (i64 i = 0; i < runs * workers; i++)
        totals[i] = 0;
    if (steal) {
        struct deal_pass d = {ticks, starts, seg, keys, tmp, totals, runs,
                              workers};
        if (!out && n_rows >= THREAD_ROWS)
            run_chunks(runs, deal_batch, &d);
        else
            for (i64 b = 0; b < runs; b++)
                deal_batch(b, &d);
    } else {
        for (i64 r = 0; r < n_rows; r++)
            totals[seg[r] * workers + rows[starts[seg[r]] * width] % workers]
                += ticks[r];
    }
    free(verts);

    /* 6: the release */
    i64 need = release_pins(pinned, pins, cache_rows, stride, order, queue,
                            stamps, qcap, state);
    result[PINNED] = need ? pinned : 0;
    return need;
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
