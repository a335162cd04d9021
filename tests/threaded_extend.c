/* kernels.c's chunk pool under ThreadSanitizer: four threads run counted
 * extend_rows passes of 4 * THREAD_ROWS rows back to back, so one holds
 * the pool with its helpers while the others find it busy and run alone,
 * and every pass is checked against a serial pass (blocks of rows below
 * THREAD_ROWS).  Build and run it with
 *
 *     gcc -O1 -g -pthread -fsanitize=thread -o threaded_extend \
 *         tests/threaded_extend.c src/repro/core/kernels.c
 *     ./threaded_extend
 *
 * It exits 0 when every pass equals the serial one; a data race makes
 * ThreadSanitizer report it and exit non-zero. */

#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

i64 extend_rows(i64 n_rows, i64 width, const i64 *rows, i64 k,
                const i64 *verts, const i64 *lens, const i64 *lt,
                i64 n_lt, const i64 *gt, i64 n_gt, const i64 *indptr,
                const i64 *indices, i64 n, const i64 *table, i64 bits,
                const i64 *labels, i64 new_label, i64 verify,
                const i64 *probe_ticks, i64 intersect, i64 *ticks,
                i64 *cand, i64 *row_ids, i64 *out, i64 cap, i64 *counts,
                i64 *survivors, i64 *probes);

#define N 400           /* vertices */
#define DEGREE 24       /* arcs drawn per vertex, before symmetry */
#define ROWS 4096       /* 4 * THREAD_ROWS */
#define BLOCK 1000      /* below THREAD_ROWS: the serial pass */
#define CALLERS 4
#define PASSES 8

static i64 indptr[N + 1], indices[2 * N * DEGREE], rows[ROWS * 2];
static i64 lens[ROWS * 2], probe_ticks[N];
static i64 gt[1] = {0};

struct pass {
    i64 total, probes, counts[ROWS], ticks[ROWS];
};

static struct pass serial;

static uint64_t seed = 12;

static i64 draw(i64 below)
{
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return (i64)((seed >> 33) % (uint64_t)below);
}

static int ascending(const void *a, const void *b)
{
    i64 x = *(const i64 *)a, y = *(const i64 *)b;
    return (x > y) - (x < y);
}

/* an undirected random graph as CSR, each list sorted and distinct */
static void make_graph(void)
{
    static char adj[N][N];
    for (i64 v = 0; v < N; v++)
        for (i64 d = 0; d < DEGREE; d++) {
            i64 u = draw(N);
            if (u != v)
                adj[v][u] = adj[u][v] = 1;
        }
    for (i64 v = 0; v < N; v++) {
        indptr[v + 1] = indptr[v];
        for (i64 u = 0; u < N; u++)
            if (adj[v][u])
                indices[indptr[v + 1]++] = u;
        qsort(indices + indptr[v], (size_t)(indptr[v + 1] - indptr[v]),
              sizeof(i64), ascending);
    }
    for (i64 l = 0; l < N; l++)
        probe_ticks[l] = 1 + l % 7;
    for (i64 i = 0; i < ROWS * 2; i++) {
        rows[i] = draw(N);
        lens[i] = indptr[rows[i] + 1] - indptr[rows[i]];
    }
}

/* a counted pass of rows[from, to) into p at the same rows */
static void extend(i64 from, i64 to, struct pass *p)
{
    i64 probes;
    p->total += extend_rows(to - from, 2, rows + 2 * from, 2,
                            rows + 2 * from, lens + 2 * from, NULL, 0,
                            gt, 1, indptr, indices, N, NULL, 0, NULL, 0, -1,
                            probe_ticks, 3, p->ticks + from, NULL, NULL,
                            NULL, 0, p->counts + from, NULL, &probes);
    p->probes += probes;
}

static void *caller(void *failed)
{
    struct pass *p = malloc(sizeof *p);
    for (int i = 0; p && i < PASSES; i++) {
        p->total = p->probes = 0;
        extend(0, ROWS, p);
        if (memcmp(p, &serial, sizeof *p))
            *(int *)failed = 1;
    }
    free(p);
    return NULL;
}

int main(void)
{
    pthread_t threads[CALLERS];
    int failed[CALLERS] = {0}, bad = 0;
    make_graph();
    for (i64 r = 0; r < ROWS; r += BLOCK)
        extend(r, r + BLOCK < ROWS ? r + BLOCK : ROWS, &serial);
    for (int t = 0; t < CALLERS; t++)
        pthread_create(&threads[t], NULL, caller, &failed[t]);
    for (int t = 0; t < CALLERS; t++) {
        pthread_join(threads[t], NULL);
        bad |= failed[t];
    }
    printf("%s: %d callers x %d passes of %d rows, %ld kept, %ld probes\n",
           bad ? "MISMATCH" : "ok", CALLERS, PASSES, ROWS,
           (long)serial.total, (long)serial.probes);
    return bad || !serial.total || !serial.probes;
}
