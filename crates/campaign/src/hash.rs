//! Deterministic configuration hashing.
//!
//! Every campaign job is identified by a 64-bit FNV-1a hash over its
//! canonicalised configuration: the job's fields are rendered as
//! `key=value` pairs, sorted lexicographically by key, and joined with
//! `\n` before hashing. Sorting makes the hash independent of field
//! declaration (and matrix file) order; rendering integers and enums as
//! decimal strings makes it independent of platform endianness and
//! pointer width. The same scheme keys the on-disk trace cache.

use mpisim::types::Fnv1a;

/// FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Hash a set of `key=value` pairs order-independently: pairs are sorted
/// by key (then value) and joined with `\n` before hashing.
pub fn hash_pairs(pairs: &[(String, String)]) -> u64 {
    let mut sorted: Vec<&(String, String)> = pairs.iter().collect();
    sorted.sort();
    let mut buf = String::new();
    for (k, v) in sorted {
        buf.push_str(k);
        buf.push('=');
        buf.push_str(v);
        buf.push('\n');
    }
    fnv1a(buf.as_bytes())
}

/// Render a 64-bit hash as the fixed-width lowercase hex used in job ids
/// and cache file names.
pub fn hex(h: u64) -> String {
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn pair_order_does_not_change_hash() {
        let a = vec![
            ("app".to_string(), "lu".to_string()),
            ("ranks".to_string(), "8".to_string()),
            ("class".to_string(), "S".to_string()),
        ];
        let mut b = a.clone();
        b.reverse();
        let mut c = a.clone();
        c.swap(0, 1);
        assert_eq!(hash_pairs(&a), hash_pairs(&b));
        assert_eq!(hash_pairs(&a), hash_pairs(&c));
    }

    #[test]
    fn distinct_configs_hash_differently() {
        let a = vec![("ranks".to_string(), "8".to_string())];
        let b = vec![("ranks".to_string(), "16".to_string())];
        assert_ne!(hash_pairs(&a), hash_pairs(&b));
    }

    #[test]
    fn hex_is_fixed_width() {
        assert_eq!(hex(0), "0000000000000000");
        assert_eq!(hex(0xabc), "0000000000000abc");
        assert_eq!(hex(u64::MAX), "ffffffffffffffff");
    }
}
