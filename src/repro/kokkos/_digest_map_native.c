/* Native DigestMap probing kernels.
 *
 * Built by repro.hashing.native into the same shared object as the
 * Murmur3 kernels.  Each entry point is the compiled twin of one NumPy
 * loop in repro/kokkos/unordered_map.py and must leave the table arrays
 * and the charged probe count bit-identical to it: the NumPy loops replay
 * the GPU's CAS race as synchronous rounds, the table layout and the
 * coalesced probe count that gpusim prices both depend on which round a
 * row reaches a slot in, so the insert and rehash kernels keep the rounds
 * and only drop the per-round interpreter dispatch.
 *
 * Conventions shared by all three: the table is `capacity` slots (a power
 * of two), keys (capacity, 2) uint64, values (capacity, 2) int64, state
 * (capacity,) uint8 with 0 = empty and 1 = occupied on entry and on every
 * return; every buffer is C-contiguous (the Python wrapper guarantees it).
 * The return value is the number of slot inspections to charge; when a
 * non-termination guard trips it is the one's complement of that number
 * (always negative), which the wrapper turns into the CapacityError the
 * NumPy loop raises.
 */

#include <stdint.h>
#include <string.h>

#define DM_FULL 1
/* Set on a slot's state for the rest of the round by the first pending row
 * that inspects it.  Rows inspecting one slot in one round coalesce into a
 * single charged access and, on an empty slot, into one CAS; that first
 * row owns both.  The bit keeps the state as it stood at the top of the
 * round readable underneath, and every marked slot is occupied once the
 * round is over: it was already, or its first row claimed it. */
#define DM_SEEN 2

static inline int64_t home_slot(const uint64_t *key, int64_t mask)
{
    return (int64_t)(key[0] & (uint64_t)mask);
}

static inline int same_key(const uint64_t *a, const uint64_t *b)
{
    return a[0] == b[0] && a[1] == b[1];
}

/* Linear-probe every key to its match (found = 1) or to the first empty
 * slot (found = 0); slot[i] is where the walk ended.  Keys do not interact,
 * so each walks alone: the sum of walk lengths is the sum of the NumPy
 * rounds' active-set sizes.  A walk longer than capacity + 1 trips the
 * guard; the remaining keys are still walked so the charge matches. */
int64_t dm_probe(const uint64_t *tkeys, const uint8_t *tstate,
                 int64_t capacity, const uint64_t *keys, int64_t m,
                 uint8_t *found, int64_t *slot)
{
    const int64_t mask = capacity - 1;
    int64_t probes = 0;
    int tripped = 0;
    int64_t i;

    for (i = 0; i < m; i++) {
        const uint64_t *key = keys + 2 * i;
        int64_t s = home_slot(key, mask);
        int64_t walked = 0;
        uint8_t hit = 0;

        for (;;) {
            if (walked == capacity + 1) {
                tripped = 1;
                break;
            }
            walked++;
            if (tstate[s] != DM_FULL)
                break;
            if (same_key(tkeys + 2 * s, key)) {
                hit = 1;
                break;
            }
            s = (s + 1) & mask;
        }
        found[i] = hit;
        slot[i] = s;
        probes += walked;
    }
    return tripped ? ~probes : probes;
}

/* Fused insert-if-absent + lookup with first-CAS-wins arbitration.
 *
 * A round classifies every pending row against the table as it stood at
 * the top of the round: a claimed slot reads as occupied only from the
 * next round on, so a row that loses a CAS to a row carrying its own
 * digest stays pending and resolves as a lookup one round later, as on the
 * GPU.  (Winner keys and values are written during the pass; nothing reads
 * them while the slot still counts as empty.)  Pending rows stay in
 * ascending row order, so the first row on a slot is the lowest row id.
 *
 * success (n,) is an output; work holds 3n int64, of which the first n
 * are an output too: each row's final slot.
 */
int64_t dm_insert_or_lookup(uint64_t *tkeys, int64_t *tvals, uint8_t *tstate,
                            int64_t capacity,
                            const uint64_t *keys, const int64_t *values,
                            int64_t n, uint8_t *success, int64_t *work)
{
    const int64_t mask = capacity - 1;
    int64_t *slot = work;
    int64_t *pend = work + n;
    int64_t *seen = work + 2 * n;
    int64_t npend = n;
    int64_t probes = 0;
    int64_t rounds = 0;
    int64_t i, j;

    for (i = 0; i < n; i++) {
        slot[i] = home_slot(keys + 2 * i, mask);
        success[i] = 0;
        pend[i] = i;
    }
    while (npend) {
        int64_t keep = 0;
        int64_t nseen = 0;

        if (++rounds > 2 * capacity + 2)
            return ~probes;
        for (j = 0; j < npend; j++) {
            const int64_t row = pend[j];
            const int64_t s = slot[row];
            const uint8_t state = tstate[s];
            const int first = !(state & DM_SEEN);

            if (first) {
                tstate[s] = state | DM_SEEN;
                seen[nseen++] = s;
            }
            if (state & DM_FULL) {
                if (same_key(tkeys + 2 * s, keys + 2 * row))
                    continue; /* lookup hit: slot[row] is final */
                slot[row] = (s + 1) & mask;
            } else if (first) {
                memcpy(tkeys + 2 * s, keys + 2 * row, 16);
                memcpy(tvals + 2 * s, values + 2 * row, 16);
                success[row] = 1;
                continue;
            }
            /* mismatch (advanced) or CAS loser (same slot): next round */
            pend[keep++] = row;
        }
        for (j = 0; j < nseen; j++)
            tstate[seen[j]] = DM_FULL;
        probes += nseen;
        npend = keep;
    }
    return probes;
}

/* Growth rebuild: re-hash m unique keys into a table that holds nothing
 * else, so an occupied slot is always another rebuilt key and advances
 * without a comparison.  Every pending row is charged every round (so only
 * an empty slot needs its first row marked), the next round's order is
 * advancers first, then CAS losers, and the CAS goes to the first row in
 * that order, not to the lowest row id.
 *
 * work holds 4m int64 of scratch.
 */
int64_t dm_reinsert_unique(uint64_t *tkeys, int64_t *tvals, uint8_t *tstate,
                           int64_t capacity,
                           const uint64_t *keys, const int64_t *values,
                           int64_t m, int64_t *work)
{
    const int64_t mask = capacity - 1;
    int64_t *slot = work;
    int64_t *pend = work + m;
    int64_t *next = work + 2 * m;
    int64_t *lost = work + 3 * m;
    int64_t npend = m;
    int64_t probes = 0;
    int64_t rounds = 0;
    int64_t i, j;

    for (i = 0; i < m; i++) {
        slot[i] = home_slot(keys + 2 * i, mask);
        pend[i] = i;
    }
    while (npend) {
        /* Advancers fill `next` from the front and winners' slots from
         * the back: together with the losers they are at most npend. */
        int64_t nadv = 0;
        int64_t nlost = 0;
        int64_t won = m;
        int64_t *swap;

        if (++rounds > capacity + 1)
            return ~probes;
        probes += npend;
        for (j = 0; j < npend; j++) {
            const int64_t row = pend[j];
            const int64_t s = slot[row];
            const uint8_t state = tstate[s];

            if (state == DM_FULL) {
                slot[row] = (s + 1) & mask;
                next[nadv++] = row;
            } else if (state == DM_SEEN) {
                lost[nlost++] = row;
            } else {
                tstate[s] = DM_SEEN;
                memcpy(tkeys + 2 * s, keys + 2 * row, 16);
                memcpy(tvals + 2 * s, values + 2 * row, 16);
                next[--won] = s;
            }
        }
        for (j = won; j < m; j++)
            tstate[next[j]] = DM_FULL;
        memcpy(next + nadv, lost, (size_t)nlost * sizeof(int64_t));
        npend = nadv + nlost;
        swap = pend;
        pend = next;
        next = swap;
    }
    return probes;
}
