//! The harness's own generator (SplitMix64). The program under test never
//! sees a seed, only the inputs drawn here, and the streams must not move
//! when the vendored `rand` stand-in is swapped for the registry crate.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`salt` names the purpose), so
    /// resizing one slice's count leaves every other stream untouched.
    pub fn fork(seed: u64, salt: u64) -> Self {
        let mut rng = Self(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias at these sizes is far
    /// below anything a traffic mix can show.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn percent(&mut self, p: u64) -> bool {
        self.below(100) < p
    }
}
