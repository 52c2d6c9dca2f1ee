//! The one `u32` ↔ little-endian byte codec of the workspace: how host
//! programs lay `u32` arrays out in MRAM and read them back, into fresh
//! vectors or, for a small op's few words, in place.

/// Writes `vals` as little-endian bytes to the front of `out` and returns
/// the `4 * vals.len()` bytes written, allocating nothing.
///
/// # Panics
///
/// When `out` is shorter than `4 * vals.len()` bytes.
pub fn encode_u32s<'a>(vals: &[u32], out: &'a mut [u8]) -> &'a [u8] {
    let out = &mut out[..4 * vals.len()];
    for (word, v) in out.chunks_exact_mut(4).zip(vals) {
        word.copy_from_slice(&v.to_le_bytes());
    }
    out
}

/// The `u32`s of little-endian `bytes`, allocating nothing; a trailing
/// partial word is ignored.
pub fn decode_u32s(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
}

/// Converts `u32`s to little-endian bytes.
#[must_use]
pub fn u32s_to_bytes(vals: &[u32]) -> Vec<u8> {
    let mut out = vec![0; 4 * vals.len()];
    encode_u32s(vals, &mut out);
    out
}

/// Converts little-endian bytes to `u32`s; a trailing partial word is
/// ignored.
#[must_use]
pub fn bytes_to_u32s(bytes: &[u8]) -> Vec<u32> {
    decode_u32s(bytes).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    /// The per-element reference form.
    fn u32s_to_bytes_ref(vals: &[u32]) -> Vec<u8> {
        let mut out = Vec::with_capacity(vals.len() * 4);
        for v in vals {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    #[test]
    fn codec_matches_the_per_element_form_and_roundtrips() {
        let mut rng = SimRng::seeded(3);
        for n in [0, 1, 16, 4_097] {
            let mut vals = rng.u32s_below(n, u32::MAX);
            if let Some(v) = vals.first_mut() {
                *v = u32::MAX;
            }
            let bytes = u32s_to_bytes(&vals);
            assert_eq!(bytes, u32s_to_bytes_ref(&vals), "n = {n}");
            assert_eq!(bytes.len(), 4 * n);
            assert_eq!(bytes_to_u32s(&bytes), vals, "n = {n}");
        }
        assert_eq!(u32s_to_bytes(&[0xDEAD_BEEF]), [0xEF, 0xBE, 0xAD, 0xDE]);
        assert_eq!(bytes_to_u32s(&[1, 0, 0, 0, 9]), [1]);
    }

    #[test]
    fn in_place_forms_match_the_allocating_ones() {
        let vals = [7, u32::MAX, 0x0102_0304];
        let mut out = [0xAAu8; 16];
        assert_eq!(encode_u32s(&vals, &mut out), u32s_to_bytes(&vals).as_slice());
        assert_eq!(out[12..], [0xAA; 4], "bytes past the words stay as they were");
        assert_eq!(decode_u32s(&out[..13]).collect::<Vec<_>>(), vals);
    }
}
