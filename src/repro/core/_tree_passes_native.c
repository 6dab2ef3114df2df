/* Native Tree passes: Algorithm 1's leaf classification and its two
 * consolidation stages as dense scans over the flat Merkle tree.
 *
 * Built by repro.hashing.native into the same shared object as the Murmur3
 * and DigestMap kernels, which these passes call as plain C functions: the
 * hashing and probing code exists once, and the table layout and coalesced
 * probe counts are the DigestMap kernels' by construction.  Each entry point
 * is the compiled twin of one NumPy pass in repro/core/dedup_tree.py and
 * must leave labels, tree digests, table, probe counts and emitted node
 * lists bit-identical to it (docs/ALGORITHM.md section 3 states the parity
 * rules; tests/core/test_tree_dedup.py decides them).
 *
 * Conventions: digests (num_nodes, 2) uint64 in heap order, children of
 * node i at 2i + 1 and 2i + 2, so a parent's hash input left||right is the
 * 32 adjacent bytes at digests + 2 * (2i + 1) and is hashed where it lies.
 * labels (num_nodes,) uint8 holds the values of repro/core/labels.py.
 * levels (nlevels, 2) int64 lists the interior nodes bottom-up as
 * [first node, count]: they are a contiguous prefix of every heap level.
 * per_level (nlevels, 2) int64 receives [batch rows, probes charged] per
 * level, from which Python rebuilds the level-synchronous launches gpusim
 * prices.  Every buffer is C-contiguous and every scratch buffer holds at
 * least as many rows as the widest batch (the Python wrapper guarantees
 * both).  Probe counts are returned in the dm_* convention: one's
 * complement when a non-termination guard tripped.
 */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

void hb_hash_rows(const uint8_t *rows, size_t n, size_t length, uint64_t seed,
                  uint64_t *out);
int64_t dm_probe(const uint64_t *tkeys, const uint8_t *tstate,
                 int64_t capacity, const uint64_t *keys, int64_t m,
                 uint8_t *found, int64_t *slot);
int64_t dm_insert_or_lookup(uint64_t *tkeys, int64_t *tvals, uint8_t *tstate,
                            int64_t capacity,
                            const uint64_t *keys, const int64_t *values,
                            int64_t n, uint8_t *success, int64_t *work);

#define FIXED_DUPL 1
#define FIRST_OCUR 2
#define SHIFT_DUPL 3
#define MIXED 4

/* Stage one settled these; stage two only looks at the rest. */
static inline int decided(uint8_t label)
{
    return label == FIRST_OCUR || label == FIXED_DUPL;
}

/* Parent digest of node i, written to the tree and to a batch row. */
static inline void hash_parent(uint64_t *digests, int64_t i, uint64_t *key)
{
    hb_hash_rows((const uint8_t *)(digests + 2 * (2 * i + 1)), 1, 32, 0, key);
    memcpy(digests + 2 * i, key, 16);
}

/* One contiguous run of leaves: `count` fresh digests against the tree
 * rows starting at `node`.  An equal digest is a fixed duplicate; any other
 * replaces the tree's and is queued as (key, (node, ckpt)) row m. */
static int64_t classify_run(const uint64_t *fresh, int64_t count, int64_t node,
                            int64_t ckpt, uint64_t *digests, uint8_t *labels,
                            uint64_t *keys, int64_t *vals, int64_t m)
{
    int64_t c;

    for (c = 0; c < count; c++, node++, fresh += 2) {
        uint64_t *prev = digests + 2 * node;

        if (fresh[0] == prev[0] && fresh[1] == prev[1]) {
            labels[node] = FIXED_DUPL;
            continue;
        }
        memcpy(prev, fresh, 16);
        memcpy(keys + 2 * m, fresh, 16);
        vals[2 * m] = node;
        vals[2 * m + 1] = ckpt;
        m++;
    }
    return m;
}

/* Leaf pass, first half.  fresh (n, 2) holds this checkpoint's chunk
 * digests in data order: the first deep_leaves chunks sit on the deepest
 * level from deep_start, the rest one level up from shallow_start.  Returns
 * the number of moving rows queued in keys / vals, in chunk order. */
int64_t tp_leaf_classify(const uint64_t *fresh, int64_t n,
                         int64_t deep_start, int64_t deep_leaves,
                         int64_t shallow_start, int64_t ckpt,
                         uint64_t *digests, uint8_t *labels,
                         uint64_t *keys, int64_t *vals)
{
    int64_t m = classify_run(fresh, deep_leaves, deep_start, ckpt, digests,
                             labels, keys, vals, 0);
    return classify_run(fresh + 2 * deep_leaves, n - deep_leaves,
                        shallow_start, ckpt, digests, labels, keys, vals, m);
}

/* Leaf pass, second half: label the m moving leaves from the fused insert's
 * outcome.  A row that created its entry is a first occurrence; any other
 * is a shifted duplicate of the winning entry, kept for serialization. */
void tp_leaf_apply(const int64_t *vals, const uint8_t *success,
                   const int64_t *winners, int64_t m, uint8_t *labels,
                   int64_t *shift_refs, uint8_t *shift_valid)
{
    int64_t j;

    for (j = 0; j < m; j++) {
        const int64_t node = vals[2 * j];

        if (success[j]) {
            labels[node] = FIRST_OCUR;
            continue;
        }
        labels[node] = SHIFT_DUPL;
        memcpy(shift_refs + 2 * node, winners + 2 * j, 16);
        shift_valid[node] = 1;
    }
}

/* First-occurrence consolidation from level `start` upwards.  A parent of
 * two FIXED children is FIXED; a parent of two FIRST children is hashed,
 * inserted and labelled FIRST whether or not the insert created an entry.
 *
 * A level's batch is inserted only if the table has room for every row of
 * it (the conservative rule of DigestMap's insert; `room` is what the table
 * had on entry), tested before anything is hashed.  Otherwise the pass
 * stops at that level with its row count in per_level: the caller grows
 * the table and re-enters there, passing the rebuild's probes as `carried`
 * so that they are charged to the level that triggered the growth.
 *
 * ctl receives [level reached, entries created, parents hashed] for this
 * call; level reached == nlevels means the pass is complete.  keys / vals
 * / success hold one batch, work the 3 * rows int64 dm_insert_or_lookup
 * needs.
 */
int64_t tp_first_pass(uint64_t *digests, uint8_t *labels,
                      const int64_t *levels, int64_t nlevels, int64_t start,
                      int64_t carried, int64_t ckpt,
                      uint64_t *tkeys, int64_t *tvals, uint8_t *tstate,
                      int64_t capacity, int64_t room,
                      uint64_t *keys, int64_t *vals, uint8_t *success,
                      int64_t *work, int64_t *per_level, int64_t *ctl)
{
    int64_t probes = 0;
    int64_t hashed = 0;
    int64_t inserted = 0;
    int tripped = 0;
    int64_t level, i, j;

    for (level = start; level < nlevels; level++) {
        const int64_t lo = levels[2 * level];
        const int64_t hi = lo + levels[2 * level + 1];
        int64_t k = 0;
        int64_t p;

        for (i = lo; i < hi; i++) {
            const uint8_t left = labels[2 * i + 1];
            const uint8_t right = labels[2 * i + 2];

            if (left == FIRST_OCUR && right == FIRST_OCUR)
                vals[2 * k++] = i;
            else if (left == FIXED_DUPL && right == FIXED_DUPL)
                labels[i] = FIXED_DUPL;
        }
        per_level[2 * level] = k;
        per_level[2 * level + 1] = 0;
        if (!k)
            continue;
        if (inserted + k > room)
            break;
        for (j = 0; j < k; j++) {
            hash_parent(digests, vals[2 * j], keys + 2 * j);
            vals[2 * j + 1] = ckpt;
            labels[vals[2 * j]] = FIRST_OCUR;
        }
        hashed += k;
        p = dm_insert_or_lookup(tkeys, tvals, tstate, capacity, keys, vals, k,
                                success, work);
        if (p < 0) {
            tripped = 1;
            p = ~p;
        }
        for (j = 0; j < k; j++)
            inserted += success[j];
        probes += p;
        per_level[2 * level + 1] = p + (level == start ? carried : 0);
        if (tripped)
            break;
    }
    ctl[0] = level;
    ctl[1] = inserted;
    ctl[2] = hashed;
    return tripped ? ~probes : probes;
}

/* Shift consolidation and emission of the compact-metadata region roots.
 * Per level: the undecided parents (not FIRST, not FIXED) with two SHIFT
 * children are hashed and looked up in one batch; a hit makes the parent
 * one SHIFT region with the entry's (node, ckpt) as its reference, every
 * other undecided parent becomes MIXED and emits its FIRST and SHIFT
 * children.  The root, nobody's child, is emitted last if it is FIRST or
 * SHIFT.
 *
 * Levels run bottom-up, so node ids only fall from one level to the next;
 * each level is emitted right to left and the lists fill from the back, so
 * the emitted nodes first_out[cap - nfirst, cap) and shift_out[cap - nshift,
 * cap) are ascending with no sort.  ctl receives [nfirst, nshift, parents
 * hashed].  keys / nodes / found / slot hold one batch.
 */
int64_t tp_shift_pass(uint64_t *digests, uint8_t *labels,
                      const int64_t *levels, int64_t nlevels,
                      const uint64_t *tkeys, const int64_t *tvals,
                      const uint8_t *tstate, int64_t capacity,
                      uint64_t *keys, int64_t *nodes, uint8_t *found,
                      int64_t *slot, int64_t *shift_refs, uint8_t *shift_valid,
                      int64_t *first_out, int64_t *shift_out, int64_t cap,
                      int64_t *per_level, int64_t *ctl)
{
    int64_t *first_top = first_out + cap;
    int64_t *shift_top = shift_out + cap;
    int64_t probes = 0;
    int64_t hashed = 0;
    int tripped = 0;
    int64_t level, i, j;

    for (level = 0; level < nlevels; level++) {
        const int64_t lo = levels[2 * level];
        const int64_t hi = lo + levels[2 * level + 1];
        int64_t undecided = 0;
        int64_t k = 0;

        for (i = lo; i < hi; i++) {
            if (decided(labels[i]))
                continue;
            undecided++;
            if (labels[2 * i + 1] == SHIFT_DUPL && labels[2 * i + 2] == SHIFT_DUPL)
                nodes[k++] = i;
        }
        per_level[2 * level] = k;
        per_level[2 * level + 1] = 0;
        if (!undecided)
            continue;
        if (k) {
            int64_t p;

            for (j = 0; j < k; j++)
                hash_parent(digests, nodes[j], keys + 2 * j);
            hashed += k;
            p = dm_probe(tkeys, tstate, capacity, keys, k, found, slot);
            if (p < 0) {
                tripped = 1;
                p = ~p;
            }
            probes += p;
            per_level[2 * level + 1] = p;
            if (tripped)
                break;
        }
        for (i = hi - 1; i >= lo; i--) {
            const uint8_t kinds[2] = {labels[2 * i + 1], labels[2 * i + 2]};
            int side;

            if (decided(labels[i]))
                continue;
            if (kinds[0] == SHIFT_DUPL && kinds[1] == SHIFT_DUPL && found[--k]) {
                labels[i] = SHIFT_DUPL;
                memcpy(shift_refs + 2 * i, tvals + 2 * slot[k], 16);
                shift_valid[i] = 1;
                continue;
            }
            for (side = 1; side >= 0; side--) {
                if (kinds[side] == FIRST_OCUR)
                    *--first_top = 2 * i + 1 + side;
                else if (kinds[side] == SHIFT_DUPL)
                    *--shift_top = 2 * i + 1 + side;
            }
            labels[i] = MIXED;
        }
    }
    if (!tripped) {
        if (labels[0] == FIRST_OCUR)
            *--first_top = 0;
        else if (labels[0] == SHIFT_DUPL)
            *--shift_top = 0;
    }
    ctl[0] = first_out + cap - first_top;
    ctl[1] = shift_out + cap - shift_top;
    ctl[2] = hashed;
    return tripped ? ~probes : probes;
}
