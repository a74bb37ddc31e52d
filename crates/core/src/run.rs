//! Merging a run — one source's strictly ascending destinations, the unit
//! the batch pipeline applies — into the strictly ascending ids of a line,
//! a block or an array, in place.

/// How many ids of `run` are absent from `ids`.
#[inline]
pub(crate) fn count_fresh(ids: &[u32], run: &[u32]) -> usize {
    let mut at = 0;
    run.iter()
        .filter(|&&u| {
            at += ids[at..].partition_point(|&x| x < u);
            let present = ids.get(at) == Some(&u);
            at += usize::from(present);
            !present
        })
        .count()
}

/// Merges `run` into `buf[..len]`, which has room for the `fresh` ids of
/// `run` absent from it ([`count_fresh`]); returns how many of the `len`
/// ids moved. Each moves once, in one block move per gap it crosses,
/// however many ids land below it.
#[inline]
pub(crate) fn merge_into(buf: &mut [u32], len: usize, run: &[u32], fresh: usize) -> usize {
    let (mut i, mut o) = (len, len + fresh);
    for &u in run.iter().rev() {
        if o == i {
            break;
        }
        let p = buf[..i].partition_point(|&x| x <= u);
        buf.copy_within(p..i, p + o - i);
        o -= i - p;
        i = p;
        if i == 0 || buf[i - 1] != u {
            o -= 1;
            buf[o] = u;
        }
    }
    len - i
}

/// Removes the ids of `run` from `buf`, closing the gaps; returns how many
/// ids are kept, now `buf[..kept]`, and how many of those moved.
#[inline]
pub(crate) fn remove_from(buf: &mut [u32], run: &[u32]) -> (usize, usize) {
    // `buf[start..]` is yet to be kept, to `buf[o..]`.
    let (mut start, mut at, mut o, mut moved) = (0, 0, 0, 0);
    for &u in run {
        at += buf[at..].partition_point(|&x| x < u);
        if buf.get(at) == Some(&u) {
            if o != start {
                buf.copy_within(start..at, o);
                moved += at - start;
            }
            o += at - start;
            start = at + 1;
        }
    }
    let len = buf.len();
    if o != start {
        buf.copy_within(start..len, o);
        moved += len - start;
    }
    (o + len - start, moved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsgraph_api::merged_ids;
    use std::collections::BTreeSet;

    /// Each helper against a `BTreeSet`, over every pair of subsets of a
    /// small id range, with the moved counts checked by position.
    #[test]
    fn helpers_match_set_arithmetic() {
        let subsets = |mask: u32| (0..8u32).filter(move |i| mask >> i & 1 == 1).map(|i| i * 2);
        for a in 0..256u32 {
            for b in 0..256u32 {
                let ids: Vec<u32> = subsets(a).collect();
                let run: Vec<u32> = subsets(b).map(|i| i + (b & 1)).collect();
                let (sa, sr): (BTreeSet<u32>, BTreeSet<u32>) =
                    (ids.iter().copied().collect(), run.iter().copied().collect());
                let fresh = count_fresh(&ids, &run);
                assert_eq!(fresh, sr.difference(&sa).count());

                let union: Vec<u32> = sa.union(&sr).copied().collect();
                let mut buf = ids.clone();
                buf.resize(ids.len() + fresh, 0);
                let moved = merge_into(&mut buf, ids.len(), &run, fresh);
                assert_eq!(buf, union);
                let stay = ids.iter().enumerate().filter(|&(i, x)| union[i] == *x);
                assert_eq!(moved, ids.len() - stay.count());

                let diff: Vec<u32> = sa.difference(&sr).copied().collect();
                let mut buf = ids.clone();
                let (kept, moved) = remove_from(&mut buf, &run);
                assert_eq!(buf[..kept], diff[..]);
                let stay = diff.iter().enumerate().filter(|&(i, x)| ids[i] == *x);
                assert_eq!(moved, diff.len() - stay.count());

                for (insert, want) in [(true, &union), (false, &diff)] {
                    let got = merged_ids(ids.len(), &run, insert, |f| ids.chunks(3).all(f));
                    assert_eq!(&got, want);
                }
            }
        }
    }
}
