/* Native chunk placement: the compiled twin of place_chunks in
 * repro/core/serialize.py, the one scatter of the read side.
 *
 * Built by repro.hashing.native into the same shared object as the hashing,
 * DigestMap and Tree-pass kernels.  One call places every chunk of a
 * provenance row (or of one replayed diff) from its group's source buffer,
 * so a gather costs its bytes plus one range-check pass, whatever the
 * number of sources.  The NumPy body of place_chunks is the reference:
 * the bytes written, the bytes placed per group and the group a range
 * error names must match it (tests/core/test_grouped_gather.py decides).
 *
 * Conventions: chunks, offs (n,) int64 give each item's destination chunk
 * and its byte offset into its group's source; ends (ngroups,) int64 are
 * the groups' exclusive item ends (group g is items ends[g-1] .. ends[g]);
 * src_addr / src_size (ngroups,) hold each source's address and byte
 * length.  Every chunk is chunk_size bytes but the short tail chunk
 * (chunk >= data_len / chunk_size), which is tail_len bytes.
 */

#include <stdint.h>
#include <string.h>

/* Return codes besides a group index >= 0 (a source range error). */
#define GA_OK (-1)
#define GA_MALFORMED (-2)

/* Place items into out; placed (ngroups,) receives the bytes per group.
 * Checks the whole call before writing a byte: returns GA_OK, the group of
 * the first item (in item order) whose range leaves its source, or
 * GA_MALFORMED for a chunk id or a group end no well-formed call holds. */
int64_t ga_place_chunks(uint8_t *out, int64_t data_len, int64_t chunk_size,
                        const int64_t *chunks, const int64_t *offs, int64_t n,
                        const uint64_t *src_addr, const int64_t *src_size,
                        const int64_t *ends, int64_t ngroups, int64_t *placed)
{
    const int64_t full = data_len / chunk_size;
    const int64_t num_chunks = (data_len + chunk_size - 1) / chunk_size;
    const int64_t tail_len = data_len - (num_chunks - 1) * chunk_size;
    int64_t g, i, start;

    for (g = 0, start = 0; g < ngroups; start = ends[g], ++g) {
        if (ends[g] < start || ends[g] > n)
            return GA_MALFORMED;
        placed[g] = 0;
        for (i = start; i < ends[g]; ++i) {
            int64_t len = chunks[i] < full ? chunk_size : tail_len;
            if (chunks[i] < 0 || chunks[i] >= num_chunks)
                return GA_MALFORMED;
            if (offs[i] < 0 || offs[i] > src_size[g] - len)
                return g;
            placed[g] += len;
        }
    }
    if (start != n)
        return GA_MALFORMED;

    for (g = 0, start = 0; g < ngroups; start = ends[g], ++g) {
        const uint8_t *src = (const uint8_t *)(uintptr_t)src_addr[g];
        for (i = start; i < ends[g]; ++i) {
            int64_t len = chunks[i] < full ? chunk_size : tail_len;
            /* memmove: a replayed diff's shifted duplicates may read the
             * buffer they are placed into (never the bytes they write). */
            memmove(out + chunks[i] * chunk_size, src + offs[i], (size_t)len);
        }
    }
    return GA_OK;
}
