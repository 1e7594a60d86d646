//! Endurance accounting: media writes per cache line.

/// Lines per chunk of the coarse difference array: one 4 KB block.
const CHUNK: usize = 64;

/// Media writes per cache line (the paper's lifetime argument for
/// avoiding double writes, §1/§3.1), as two difference arrays of
/// wrapping counters, one over lines and one over 64-line chunks: line
/// `l` has seen `lines[0] + … + lines[l]` plus `chunks[0] + … +
/// chunks[l / 64]` writes. A staged run counts its whole chunks in the
/// chunk array and its ragged ends in the line array — at most six adds
/// whatever its length — and a 4 KB block at a block-aligned address
/// touches only the chunk array (`capacity / 4096` counters, small
/// enough to stay cached). A query folds the prefixes it needs.
pub(crate) struct Wear {
    lines: Vec<u32>,
    chunks: Vec<u32>,
}

impl Wear {
    /// No writes yet on a device of `lines` lines.
    pub(crate) fn new(lines: usize) -> Self {
        Self {
            lines: vec![0; lines + 1],
            chunks: vec![0; lines / CHUNK + 1],
        }
    }

    /// Lines accounted.
    pub(crate) fn len(&self) -> usize {
        self.lines.len() - 1
    }

    /// One media write to each of lines `first .. first + len`.
    pub(crate) fn count_run(&mut self, first: usize, len: usize) {
        let end = first + len;
        let (whole_lo, whole_hi) = (first.div_ceil(CHUNK), end / CHUNK);
        if whole_lo < whole_hi {
            bump(&mut self.chunks, whole_lo, whole_hi);
            bump(&mut self.lines, first, whole_lo * CHUNK);
            bump(&mut self.lines, whole_hi * CHUNK, end);
        } else {
            bump(&mut self.lines, first, end);
        }
    }

    /// Writes so far to each line of `0 .. hi`, in line order.
    pub(crate) fn per_line(&self, hi: usize) -> impl Iterator<Item = u32> + '_ {
        let (mut by_line, mut by_chunk) = (0u32, 0u32);
        (self.lines[..hi].iter().enumerate()).map(move |(line, &d)| {
            if line.is_multiple_of(CHUNK) {
                by_chunk = by_chunk.wrapping_add(self.chunks[line / CHUNK]);
            }
            by_line = by_line.wrapping_add(d);
            by_line.wrapping_add(by_chunk)
        })
    }

    /// Writes so far to `line`.
    pub(crate) fn of(&self, line: usize) -> u32 {
        let sum = |diff: &[u32]| diff.iter().fold(0u32, |w, &d| w.wrapping_add(d));
        sum(&self.lines[..=line]).wrapping_add(sum(&self.chunks[..=line / CHUNK]))
    }
}

/// Adds one to every counter of `lo .. hi` in the difference array `diff`.
fn bump(diff: &mut [u32], lo: usize, hi: usize) {
    if lo < hi {
        diff[lo] = diff[lo].wrapping_add(1);
        diff[hi] = diff[hi].wrapping_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_of_every_shape_count_one_write_per_line() {
        let lines = 5 * CHUNK + 7;
        let mut wear = Wear::new(lines);
        let mut want = vec![0u32; lines];
        let runs = [
            (0, 1),
            (0, CHUNK),
            (CHUNK, CHUNK),
            (3, 2 * CHUNK + 10),
            (CHUNK - 1, 2),
            (2 * CHUNK, 3 * CHUNK + 7),
            (lines - 1, 1),
            (10, 20),
        ];
        for (first, len) in runs {
            wear.count_run(first, len);
            for w in &mut want[first..first + len] {
                *w += 1;
            }
        }
        assert_eq!(wear.len(), lines);
        assert_eq!(wear.per_line(lines).collect::<Vec<_>>(), want);
        for (line, &w) in want.iter().enumerate() {
            assert_eq!(wear.of(line), w, "line {line}");
        }
    }
}
