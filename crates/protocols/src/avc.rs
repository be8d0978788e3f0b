//! The Average-and-Conquer (AVC) protocol — the paper's main contribution.

use avc_population::{Opinion, Protocol, StateId};
use std::error::Error;
use std::fmt;

/// The sign of an AVC state: the node's tentative output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sign {
    /// `+`, corresponding to input/majority state `A` (output 1).
    Plus,
    /// `−`, corresponding to input/majority state `B` (output 0).
    Minus,
}

impl Sign {
    /// The sign of a nonzero integer.
    ///
    /// # Panics
    ///
    /// Panics if `v == 0` — zero values carry an explicit sign in AVC and
    /// must not be reconstructed from the integer.
    fn of(v: i64) -> Sign {
        match v.cmp(&0) {
            std::cmp::Ordering::Greater => Sign::Plus,
            std::cmp::Ordering::Less => Sign::Minus,
            std::cmp::Ordering::Equal => panic!("zero has no arithmetic sign"),
        }
    }

    fn unit(self) -> i64 {
        match self {
            Sign::Plus => 1,
            Sign::Minus => -1,
        }
    }

    fn opinion(self) -> Opinion {
        match self {
            Sign::Plus => Opinion::A,
            Sign::Minus => Opinion::B,
        }
    }
}

impl fmt::Display for Sign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sign::Plus => write!(f, "+"),
            Sign::Minus => write!(f, "-"),
        }
    }
}

/// A state of the AVC protocol, as defined in Figure 1 of the paper.
///
/// Each state carries a *sign* (the node's tentative output) and a *weight*
/// (its confidence): strong states have odd weight `3..=m`, intermediate
/// states have weight 1 and an extra level `1..=d`, and weak states have
/// weight 0. The state's *value* is `sign × weight`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AvcState {
    /// A strong state holding an odd value `v` with `3 ≤ |v| ≤ m`.
    Strong(i64),
    /// An intermediate state `±1_level` with weight 1 and `1 ≤ level ≤ d`.
    Intermediate(Sign, u32),
    /// A weak state `±0` with weight 0.
    Weak(Sign),
}

impl AvcState {
    /// The state's weight (Figure 1, line 1).
    #[must_use]
    pub fn weight(self) -> i64 {
        match self {
            AvcState::Strong(v) => v.abs(),
            AvcState::Intermediate(..) => 1,
            AvcState::Weak(_) => 0,
        }
    }

    /// The state's sign (Figure 1, line 2).
    #[must_use]
    pub fn sign(self) -> Sign {
        match self {
            AvcState::Strong(v) => Sign::of(v),
            AvcState::Intermediate(s, _) | AvcState::Weak(s) => s,
        }
    }

    /// The state's value `sgn × weight` (Figure 1, line 3).
    #[must_use]
    pub fn value(self) -> i64 {
        match self {
            AvcState::Strong(v) => v,
            AvcState::Intermediate(s, _) => s.unit(),
            AvcState::Weak(_) => 0,
        }
    }
}

impl fmt::Display for AvcState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AvcState::Strong(v) => write!(f, "{v:+}"),
            AvcState::Intermediate(s, level) => write!(f, "{s}1_{level}"),
            AvcState::Weak(s) => write!(f, "{s}0"),
        }
    }
}

/// Invalid `(m, d)` or state-budget parameters for [`Avc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AvcParameterError {
    /// `m` must be an odd integer `≥ 1`.
    InvalidM(u64),
    /// `d` must be `≥ 1`.
    InvalidD(u32),
    /// A state budget `s` must be at least `m_min + 2d + 1 = 4` for `d = 1`.
    BudgetTooSmall(u64),
    /// `s = m + 2d + 1` must be at most [`Avc::MAX_STATES`].
    TooManyStates {
        /// The maximum weight asked for.
        m: u64,
        /// The intermediate levels asked for.
        d: u32,
    },
}

impl fmt::Display for AvcParameterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AvcParameterError::InvalidM(m) => {
                write!(f, "m must be an odd integer >= 1, got {m}")
            }
            AvcParameterError::InvalidD(d) => write!(f, "d must be >= 1, got {d}"),
            AvcParameterError::BudgetTooSmall(s) => {
                write!(f, "state budget must be >= 4, got {s}")
            }
            AvcParameterError::TooManyStates { m, d } => write!(
                f,
                "s = m + 2d + 1 must be <= {}, got m = {m}, d = {d}",
                Avc::MAX_STATES
            ),
        }
    }
}

impl Error for AvcParameterError {}

/// The **Average-and-Conquer** exact-majority protocol (paper §3, Figure 1).
///
/// Nodes start at value `+m` (input `A`) or `−m` (input `B`) and repeatedly
/// *average* their values (rounding to odd integers), *neutralize* opposite
/// weight-1 states through `d` intermediate levels into weak `±0` states,
/// and let weak states adopt the sign of any non-weak partner. The total
/// value in the system is invariant (Invariant 4.3), which makes the
/// protocol exact: it converges to the initial majority's sign with
/// probability 1, in `O(log n/(sε) + log n log s)` expected parallel time.
///
/// The protocol uses `s = m + 2d + 1` states. The paper's experiments all
/// use `d = 1` (§6), provided here by [`Avc::with_states`].
///
/// # Example
///
/// ```
/// use avc_protocols::{Avc, AvcState};
///
/// let avc = Avc::new(5, 1)?;
/// assert_eq!(avc.s(), 8);
/// // Worked example from the paper: values 5 and −1 average to 1 and 3.
/// let five = avc.encode(AvcState::Strong(5));
/// let minus_one = avc.encode(AvcState::Intermediate(avc_protocols::Sign::Minus, 1));
/// use avc_population::Protocol;
/// let (x, y) = avc.transition(five, minus_one);
/// let (x, y) = (avc.decode(x), avc.decode(y));
/// assert_eq!(x.value() + y.value(), 4);
/// assert_eq!((x.value(), y.value()), (1, 3));
/// # Ok::<(), avc_protocols::AvcParameterError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Avc {
    m: i64,
    d: u32,
    /// Number of strong values per sign: `(m − 1) / 2`.
    strong_per_sign: u32,
    name: String,
}

impl Avc {
    /// The most states `s = m + 2d + 1` an instance may have, `2³¹`: state
    /// ids are `u32`, and [`Protocol::transition`] adds `d` to an id.
    pub const MAX_STATES: u64 = 1 << 31;

    /// Creates the protocol with the given maximum weight `m` (odd, `≥ 1`)
    /// and number of intermediate levels `d` (`≥ 1`).
    ///
    /// # Errors
    ///
    /// Returns an error if `m` is even or zero, `d` is zero, or
    /// `s = m + 2d + 1` exceeds [`Avc::MAX_STATES`].
    pub fn new(m: u64, d: u32) -> Result<Avc, AvcParameterError> {
        if m == 0 || m.is_multiple_of(2) {
            return Err(AvcParameterError::InvalidM(m));
        }
        if d == 0 {
            return Err(AvcParameterError::InvalidD(d));
        }
        let s = m.checked_add(2 * u64::from(d) + 1);
        if s.is_none_or(|s| s > Avc::MAX_STATES) {
            return Err(AvcParameterError::TooManyStates { m, d });
        }
        let name = format!("avc(m={m},d={d})");
        Ok(Avc {
            m: m as i64,
            d,
            strong_per_sign: ((m - 1) / 2) as u32,
            name,
        })
    }

    /// Creates the protocol under the paper's experimental setting `d = 1`,
    /// using at most `budget` states: `m` is the largest odd integer with
    /// `m + 3 ≤ budget`, so `s ∈ {budget, budget − 1}`.
    ///
    /// The paper's Figure 4 sweeps `s ∈ {4, 6, 12, 24, …}` this way, and
    /// its "n-state AVC" in Figure 3 is `Avc::with_states(n)`.
    ///
    /// # Errors
    ///
    /// Returns an error if `budget < 4` (four states are necessary for
    /// exact majority) or if `s` would exceed [`Avc::MAX_STATES`].
    pub fn with_states(budget: u64) -> Result<Avc, AvcParameterError> {
        if budget < 4 {
            return Err(AvcParameterError::BudgetTooSmall(budget));
        }
        let m = if (budget - 3) % 2 == 1 {
            budget - 3
        } else {
            budget - 4
        };
        Avc::new(m, 1)
    }

    /// The maximum weight `m`.
    #[must_use]
    pub fn m(&self) -> u64 {
        self.m as u64
    }

    /// The number of intermediate levels `d`.
    #[must_use]
    pub fn d(&self) -> u32 {
        self.d
    }

    /// The number of states `s = m + 2d + 1`.
    #[must_use]
    pub fn s(&self) -> u64 {
        self.m as u64 + 2 * self.d as u64 + 1
    }

    /// Encodes a state as its dense index.
    ///
    /// The layout is `−m … −3, −1_1 … −1_d, −0, +0, +1_1 … +1_d, +3 … +m`.
    ///
    /// # Panics
    ///
    /// Panics if the state is invalid for these parameters (even or
    /// out-of-range strong value, level outside `1..=d`).
    #[must_use]
    pub fn encode(&self, state: AvcState) -> StateId {
        let k = self.strong_per_sign;
        let d = self.d;
        match state {
            AvcState::Strong(v) => {
                assert!(
                    v % 2 != 0 && v.abs() >= 3 && v.abs() <= self.m,
                    "invalid strong value {v} for m={}",
                    self.m
                );
                if v < 0 {
                    // −m at index 0, −3 at index k−1.
                    ((v + self.m) / 2) as StateId
                } else {
                    // +3 at k+2d+2, +m at the end.
                    (k + 2 * d + 2) + ((v - 3) / 2) as u32
                }
            }
            AvcState::Intermediate(sign, level) => {
                assert!(level >= 1 && level <= d, "invalid level {level} for d={d}");
                match sign {
                    Sign::Minus => k + (level - 1),
                    Sign::Plus => k + d + 2 + (level - 1),
                }
            }
            AvcState::Weak(Sign::Minus) => k + d,
            AvcState::Weak(Sign::Plus) => k + d + 1,
        }
    }

    /// Decodes a dense index back into a state.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn decode(&self, id: StateId) -> AvcState {
        let k = self.strong_per_sign;
        let d = self.d;
        assert!(
            (id as u64) < self.s(),
            "state id {id} out of range for s={}",
            self.s()
        );
        if id < k {
            AvcState::Strong(-self.m + 2 * id as i64)
        } else if id < k + d {
            AvcState::Intermediate(Sign::Minus, id - k + 1)
        } else if id == k + d {
            AvcState::Weak(Sign::Minus)
        } else if id == k + d + 1 {
            AvcState::Weak(Sign::Plus)
        } else if id < k + 2 * d + 2 {
            AvcState::Intermediate(Sign::Plus, id - (k + d + 2) + 1)
        } else {
            AvcState::Strong(3 + 2 * (id - (k + 2 * d + 2)) as i64)
        }
    }

    /// The signed value encoded by a state index.
    #[must_use]
    pub fn value_of(&self, id: StateId) -> i64 {
        self.decode(id).value()
    }

    /// The total value `Σ value(state) · count(state)` of a configuration
    /// given as per-state counts.
    ///
    /// By Invariant 4.3 this quantity never changes along any execution;
    /// it starts at `(a − b)·m` and its sign determines the decision.
    ///
    /// # Panics
    ///
    /// Panics if `counts` does not have exactly `s` entries.
    #[must_use]
    pub fn total_value(&self, counts: &[u64]) -> i64 {
        assert_eq!(counts.len() as u64, self.s(), "count vector length != s");
        counts
            .iter()
            .enumerate()
            .map(|(id, &c)| self.value_of(id as StateId) * c as i64)
            .sum()
    }

    /// `Shift-to-Zero` (Figure 1): intermediates below level `d` move one
    /// level toward zero; every other state is unchanged.
    fn shift_to_zero(&self, state: AvcState) -> AvcState {
        match state {
            AvcState::Intermediate(sign, level) if level < self.d => {
                AvcState::Intermediate(sign, level + 1)
            }
            other => other,
        }
    }

    /// `ϕ` (Figure 1): maps the integers ±1 into the level-1 intermediate
    /// states; other odd values become strong states.
    fn phi(&self, v: i64) -> AvcState {
        debug_assert!(v % 2 != 0, "ϕ takes odd integers, got {v}");
        match v {
            1 => AvcState::Intermediate(Sign::Plus, 1),
            -1 => AvcState::Intermediate(Sign::Minus, 1),
            other => AvcState::Strong(other),
        }
    }

    /// `R↓` (Figure 1): round down to an odd value, then `ϕ`.
    fn round_down(&self, k: i64) -> AvcState {
        self.phi(if k % 2 != 0 { k } else { k - 1 })
    }

    /// `R↑` (Figure 1): round up to an odd value, then `ϕ`.
    fn round_up(&self, k: i64) -> AvcState {
        self.phi(if k % 2 != 0 { k } else { k + 1 })
    }

    /// The update rule `update⟨x, y⟩` of Figure 1, on decoded states.
    ///
    /// The rule is symmetric in its arguments (up to swapping the results),
    /// so initiator/responder order does not matter.
    #[must_use]
    pub fn update(&self, x: AvcState, y: AvcState) -> (AvcState, AvcState) {
        let (wx, wy) = (x.weight(), y.weight());
        if wx > 0 && wy > 0 && (wx > 1 || wy > 1) {
            // Averaging reaction (line 11). Both values are odd, so the sum
            // is even and the average is an exact integer.
            let avg = (x.value() + y.value()) / 2;
            (self.round_down(avg), self.round_up(avg))
        } else if wx * wy == 0 && wx + wy > 0 {
            // Zero meets non-zero (lines 12–14): the weak node adopts the
            // sign of its partner; the partner is only affected if it is an
            // intermediate below level d (it drops one level).
            //
            // Note: the TR's line 12 literally reads `value(x)+value(y) > 0`;
            // the prose ("zero meets non-zero") and the sum invariant require
            // the weight-based guard implemented here.
            if wx != 0 {
                (self.shift_to_zero(x), AvcState::Weak(x.sign()))
            } else {
                (AvcState::Weak(y.sign()), self.shift_to_zero(y))
            }
        } else if wx == 1
            && wy == 1
            && x.sign() != y.sign()
            && (matches!(x, AvcState::Intermediate(_, l) if l == self.d)
                || matches!(y, AvcState::Intermediate(_, l) if l == self.d))
        {
            // Neutralization (lines 15–17): opposite intermediate states,
            // at least one at the deepest level, cancel into ±0.
            (AvcState::Weak(x.sign()), AvcState::Weak(y.sign()))
        } else {
            // Residual case (lines 18–19): both shift toward zero. This
            // covers weak–weak (a no-op) and intermediate–intermediate pairs
            // with no level-d participant; we follow the pseudocode literally
            // and shift same-sign intermediate pairs too (a no-op under the
            // experimental setting d = 1). Values are unchanged either way,
            // preserving Invariant 4.3.
            (self.shift_to_zero(x), self.shift_to_zero(y))
        }
    }
}

/// The dense layout of [`Avc::encode`] as id ranges, for the arithmetic
/// [`Protocol::transition`]: value, sign, level and the `ϕ` re-encoding
/// are piecewise linear in the id. Built from the protocol's fields, so
/// it costs nothing to make per call.
#[derive(Clone, Copy)]
struct Layout {
    m: i64,
    d: u32,
    /// `−0`; `+0` is the next id.
    neg_zero: StateId,
    /// `+3`, the first positive strong state (`s` when `m = 1`).
    pos_strong: StateId,
}

impl Layout {
    fn strong(self, q: StateId) -> bool {
        q + self.d < self.neg_zero || q >= self.pos_strong
    }

    fn weak(self, q: StateId) -> bool {
        q.wrapping_sub(self.neg_zero) < 2
    }

    fn plus(self, q: StateId) -> bool {
        q > self.neg_zero
    }

    /// The weak state `±0` with the sign of `q`.
    fn weak_like(self, q: StateId) -> StateId {
        self.neg_zero + StateId::from(self.plus(q))
    }

    /// Whether `q` is an intermediate state at the deepest level `d`.
    fn deepest(self, q: StateId) -> bool {
        q + 1 == self.neg_zero || q + 1 == self.pos_strong
    }

    /// `Shift-to-Zero`: an intermediate below level `d` moves one level
    /// toward zero, which is the next id on both signs.
    fn shift_to_zero(self, q: StateId) -> StateId {
        let below_d = (q + self.d >= self.neg_zero && q + 1 < self.neg_zero)
            || (q > self.neg_zero + 1 && q + 1 < self.pos_strong);
        q + StateId::from(below_d)
    }

    /// The value of a non-weak state: `2q − m` on the negative strong
    /// states, `±1` on the intermediates, `2(q − 2d) − m` on the positive
    /// strong states.
    fn value(self, q: StateId) -> i64 {
        let q = i64::from(q);
        if q + i64::from(self.d) < i64::from(self.neg_zero) {
            2 * q - self.m
        } else if q >= i64::from(self.pos_strong) {
            2 * (q - 2 * i64::from(self.d)) - self.m
        } else if q < i64::from(self.neg_zero) {
            -1
        } else {
            1
        }
    }

    /// `ϕ` then encode, for an odd `u` with `|u| ≤ m`. A negative `u`
    /// lands on id `(u + m)/2` (`−1` on `−1_1`); a positive one skips the
    /// ids no positive odd value maps to: `d + 1` below `+1_1` (`−1_2 …
    /// −1_d`, `−0`, `+0`) and `2d` below `+3`.
    fn phi(self, u: i64) -> StateId {
        let base = ((u + self.m) >> 1) as StateId;
        base + StateId::from(u >= 1) * (self.d + 1) + StateId::from(u >= 3) * (self.d - 1)
    }
}

impl Protocol for Avc {
    fn num_states(&self) -> u32 {
        self.s() as u32
    }

    /// [`Avc::update`] computed directly on the dense ids; it equals
    /// `encode(update(decode(a), decode(b)))` for every pair, which the
    /// tests check exhaustively.
    fn transition(&self, initiator: StateId, responder: StateId) -> (StateId, StateId) {
        let k = self.strong_per_sign;
        let d = self.d;
        let layout = Layout {
            m: self.m,
            d,
            neg_zero: k + d,
            pos_strong: k + 2 * d + 2,
        };
        let (a, b) = (initiator, responder);
        let (weak_a, weak_b) = (layout.weak(a), layout.weak(b));
        if !weak_a && !weak_b && (layout.strong(a) || layout.strong(b)) {
            // Averaging: both values are odd, so the sum is even; round the
            // average down and up to odd values.
            let avg = (layout.value(a) + layout.value(b)) >> 1;
            return (layout.phi((avg - 1) | 1), layout.phi(avg | 1));
        }
        if weak_a != weak_b {
            // Zero meets non-zero: the weak node adopts the partner's sign,
            // and a partner intermediate below level d shifts toward zero.
            return if weak_a {
                (layout.weak_like(b), layout.shift_to_zero(b))
            } else {
                (layout.shift_to_zero(a), layout.weak_like(a))
            };
        }
        if !weak_a && layout.plus(a) != layout.plus(b) && (layout.deepest(a) || layout.deepest(b)) {
            // Neutralization of opposite intermediates.
            return (layout.weak_like(a), layout.weak_like(b));
        }
        (layout.shift_to_zero(a), layout.shift_to_zero(b))
    }

    fn output(&self, state: StateId) -> Opinion {
        self.decode(state).sign().opinion()
    }

    fn input(&self, opinion: Opinion) -> StateId {
        let sign = match opinion {
            Opinion::A => Sign::Plus,
            Opinion::B => Sign::Minus,
        };
        if self.m >= 3 {
            self.encode(AvcState::Strong(self.m * sign.unit()))
        } else {
            // m = 1: the initial states are the level-1 intermediates and the
            // protocol coincides with the four-state protocol.
            self.encode(AvcState::Intermediate(sign, 1))
        }
    }

    fn state_label(&self, state: StateId) -> String {
        self.decode(state).to_string()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn avc(m: u64, d: u32) -> Avc {
        Avc::new(m, d).expect("valid parameters")
    }

    fn inter(sign: Sign, level: u32) -> AvcState {
        AvcState::Intermediate(sign, level)
    }

    #[test]
    fn parameter_validation() {
        assert_eq!(Avc::new(4, 1).unwrap_err(), AvcParameterError::InvalidM(4));
        assert_eq!(Avc::new(0, 1).unwrap_err(), AvcParameterError::InvalidM(0));
        assert_eq!(Avc::new(5, 0).unwrap_err(), AvcParameterError::InvalidD(0));
        assert!(Avc::new(1, 1).is_ok());
        // s = m + 2d + 1 is bounded by MAX_STATES = 2³¹, so ids fit u32.
        // At the bound the arithmetic transition still equals the decoded
        // update on the end ids (no engine: O(1) memory at 2³¹ states).
        for (m, d) in [(Avc::MAX_STATES - 3, 1), (1, (1 << 30) - 1)] {
            let p = avc(m, d);
            assert_eq!(p.s(), Avc::MAX_STATES);
            let last = p.num_states() - 1;
            let zero = (m / 2) as StateId + d;
            let ids = [0, 1, d, zero - 1, zero, zero + 1, zero + 2, last - 1, last];
            for &a in &ids {
                for &b in &ids {
                    let (x, y) = p.update(p.decode(a), p.decode(b));
                    assert_eq!(
                        p.transition(a, b),
                        (p.encode(x), p.encode(y)),
                        "({a}, {b}) at m={m}, d={d}"
                    );
                }
            }
        }
        for (m, d) in [
            (Avc::MAX_STATES - 1, 1),
            (4_294_967_297, 1),
            (1, 1 << 30),
            (u64::MAX, u32::MAX),
        ] {
            assert_eq!(
                Avc::new(m, d).unwrap_err(),
                AvcParameterError::TooManyStates { m, d }
            );
        }
        assert_eq!(
            Avc::with_states(Avc::MAX_STATES + 1).unwrap().s(),
            Avc::MAX_STATES
        );
        assert!(Avc::with_states(Avc::MAX_STATES + 2).is_err());
    }

    #[test]
    fn state_count_formula() {
        assert_eq!(avc(1, 1).s(), 4);
        assert_eq!(avc(5, 1).s(), 8);
        assert_eq!(avc(5, 3).s(), 12);
        assert_eq!(avc(15, 2).s(), 20);
    }

    #[test]
    fn with_states_matches_figure4_parameterization() {
        // Figure 4 uses s ∈ {4, 6, 12, …} with d = 1, i.e. m = s − 3.
        for (s, m) in [(4u64, 1u64), (6, 3), (12, 9), (24, 21), (34, 31), (66, 63)] {
            let p = Avc::with_states(s).unwrap();
            assert_eq!(p.m(), m);
            assert_eq!(p.d(), 1);
            assert_eq!(p.s(), s);
        }
        // Odd budgets round down.
        assert_eq!(Avc::with_states(11).unwrap().s(), 10);
        assert!(Avc::with_states(3).is_err());
    }

    #[test]
    fn encode_decode_roundtrip_all_states() {
        for (m, d) in [(1u64, 1u32), (1, 4), (3, 1), (5, 2), (9, 3), (101, 7)] {
            let p = avc(m, d);
            for id in 0..p.num_states() {
                let state = p.decode(id);
                assert_eq!(p.encode(state), id, "m={m}, d={d}, id={id}");
            }
        }
    }

    #[test]
    fn state_space_layout_is_value_ordered() {
        let p = avc(7, 2);
        let values: Vec<i64> = (0..p.num_states()).map(|id| p.value_of(id)).collect();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        assert_eq!(values, sorted, "layout should be monotone in value");
        assert_eq!(values[0], -7);
        assert_eq!(*values.last().unwrap(), 7);
    }

    #[test]
    fn weight_sign_value_match_figure1() {
        let p = avc(5, 2);
        assert_eq!(AvcState::Strong(-5).weight(), 5);
        assert_eq!(AvcState::Strong(-5).sign(), Sign::Minus);
        assert_eq!(AvcState::Strong(-5).value(), -5);
        assert_eq!(inter(Sign::Plus, 2).weight(), 1);
        assert_eq!(inter(Sign::Minus, 1).value(), -1);
        assert_eq!(AvcState::Weak(Sign::Plus).weight(), 0);
        assert_eq!(AvcState::Weak(Sign::Minus).value(), 0);
        assert_eq!(AvcState::Weak(Sign::Minus).sign(), Sign::Minus);
        let _ = p;
    }

    #[test]
    fn paper_example_five_meets_minus_one() {
        // "input states 5 and −1 will yield output states 1 and 3"
        let p = avc(5, 1);
        let (x, y) = p.update(AvcState::Strong(5), inter(Sign::Minus, 1));
        assert_eq!(x, inter(Sign::Plus, 1));
        assert_eq!(y, AvcState::Strong(3));
    }

    #[test]
    fn paper_example_m_meets_minus_m() {
        // "states m and −m react to produce states −1_1 and 1_1"
        for m in [3u64, 5, 9, 15] {
            let p = avc(m, 2);
            let (x, y) = p.update(AvcState::Strong(m as i64), AvcState::Strong(-(m as i64)));
            assert_eq!(x, inter(Sign::Minus, 1));
            assert_eq!(y, inter(Sign::Plus, 1));
        }
    }

    #[test]
    fn paper_example_three_meets_minus_zero() {
        // "input states 3 and −0 will yield output states 3 and 0"
        let p = avc(5, 1);
        let (x, y) = p.update(AvcState::Strong(3), AvcState::Weak(Sign::Minus));
        assert_eq!(x, AvcState::Strong(3));
        assert_eq!(y, AvcState::Weak(Sign::Plus));
    }

    #[test]
    fn averaging_rounds_even_averages_apart() {
        let p = avc(9, 1);
        // 9 and 3: average 6 → 5 and 7.
        let (x, y) = p.update(AvcState::Strong(9), AvcState::Strong(3));
        assert_eq!((x.value(), y.value()), (5, 7));
        // 9 and −3: average 3 → both 3.
        let (x, y) = p.update(AvcState::Strong(9), AvcState::Strong(-3));
        assert_eq!((x.value(), y.value()), (3, 3));
        // −9 and 1: average −4 → −5 and −3.
        let (x, y) = p.update(AvcState::Strong(-9), inter(Sign::Plus, 1));
        assert_eq!((x.value(), y.value()), (-5, -3));
    }

    #[test]
    fn averaging_into_plus_minus_one_yields_level_one_intermediates() {
        let p = avc(9, 3);
        // 3 and −3: average 0 → −1_1 and +1_1.
        let (x, y) = p.update(AvcState::Strong(3), AvcState::Strong(-3));
        assert_eq!(x, inter(Sign::Minus, 1));
        assert_eq!(y, inter(Sign::Plus, 1));
        // 3 and −1: average 1 → both +1_1.
        let (x, y) = p.update(AvcState::Strong(3), inter(Sign::Minus, 2));
        assert_eq!(x, inter(Sign::Plus, 1));
        assert_eq!(y, inter(Sign::Plus, 1));
    }

    #[test]
    fn weak_adopts_sign_and_intermediate_partner_drops_level() {
        let p = avc(5, 3);
        // −1_1 meets +0: partner adopts −, node drops to −1_2.
        let (x, y) = p.update(inter(Sign::Minus, 1), AvcState::Weak(Sign::Plus));
        assert_eq!(x, inter(Sign::Minus, 2));
        assert_eq!(y, AvcState::Weak(Sign::Minus));
        // At level d the intermediate no longer drops.
        let (x, y) = p.update(inter(Sign::Minus, 3), AvcState::Weak(Sign::Plus));
        assert_eq!(x, inter(Sign::Minus, 3));
        assert_eq!(y, AvcState::Weak(Sign::Minus));
        // Symmetric argument order.
        let (x, y) = p.update(AvcState::Weak(Sign::Minus), AvcState::Strong(5));
        assert_eq!(x, AvcState::Weak(Sign::Plus));
        assert_eq!(y, AvcState::Strong(5));
    }

    #[test]
    fn neutralization_requires_level_d() {
        let p = avc(5, 3);
        // Opposite intermediates, one at level d: both become weak.
        let (x, y) = p.update(inter(Sign::Plus, 3), inter(Sign::Minus, 1));
        assert_eq!(x, AvcState::Weak(Sign::Plus));
        assert_eq!(y, AvcState::Weak(Sign::Minus));
        // Opposite intermediates below level d: both drop one level.
        let (x, y) = p.update(inter(Sign::Plus, 1), inter(Sign::Minus, 2));
        assert_eq!(x, inter(Sign::Plus, 2));
        assert_eq!(y, inter(Sign::Minus, 3));
    }

    #[test]
    fn weak_weak_is_silent() {
        let p = avc(5, 2);
        for (sx, sy) in [
            (Sign::Plus, Sign::Plus),
            (Sign::Plus, Sign::Minus),
            (Sign::Minus, Sign::Minus),
        ] {
            let (x, y) = p.update(AvcState::Weak(sx), AvcState::Weak(sy));
            assert_eq!(x, AvcState::Weak(sx));
            assert_eq!(y, AvcState::Weak(sy));
        }
    }

    #[test]
    fn update_preserves_value_sum_exhaustively() {
        // Invariant 4.3 checked over every ordered state pair for several
        // parameter settings.
        for (m, d) in [(1u64, 1u32), (1, 3), (3, 1), (5, 2), (9, 4), (15, 1)] {
            let p = avc(m, d);
            for a in 0..p.num_states() {
                for b in 0..p.num_states() {
                    let (x, y) = p.transition(a, b);
                    assert_eq!(
                        p.value_of(a) + p.value_of(b),
                        p.value_of(x) + p.value_of(y),
                        "sum invariant violated for {} , {} (m={m}, d={d})",
                        p.state_label(a),
                        p.state_label(b),
                    );
                }
            }
        }
    }

    #[test]
    fn transition_equals_update_on_decoded_states() {
        let mut params = vec![
            (1u64, 1u32),
            (1, 4),
            (3, 1),
            (3, 3),
            (5, 2),
            (9, 4),
            (21, 3),
        ];
        params.push((Avc::with_states(130).unwrap().m(), 1));
        params.push((Avc::with_states(2_050).unwrap().m(), 1));
        for (m, d) in params {
            let p = avc(m, d);
            for a in 0..p.num_states() {
                for b in 0..p.num_states() {
                    let (x, y) = p.update(p.decode(a), p.decode(b));
                    assert_eq!(
                        p.transition(a, b),
                        (p.encode(x), p.encode(y)),
                        "({a}, {b}) at m={m}, d={d}"
                    );
                }
            }
        }
    }

    /// `transition(a, b)` equals the encoded update of the decoded pair and
    /// keeps the value sum.
    fn assert_pair(p: &Avc, states: &[AvcState], values: &[i64], a: StateId, b: StateId) {
        let (x, y) = p.update(states[a as usize], states[b as usize]);
        let (tx, ty) = p.transition(a, b);
        assert_eq!(
            (tx, ty),
            (p.encode(x), p.encode(y)),
            "({a}, {b}) at s={}",
            p.s()
        );
        assert_eq!(
            values[tx as usize] + values[ty as usize],
            values[a as usize] + values[b as usize],
            "value sum of ({a}, {b}) at s={}",
            p.s()
        );
    }

    /// The arithmetic transition that fig4 runs above the `Cached` table
    /// bound, on every pair at s = 1 026, 4 098 and 16 340 (2.7·10⁸ pairs at
    /// the last), and on fig3's n = 100 001 instance (s = 100 000) on a
    /// seeded sample of pairs plus every pair that holds an id at the end
    /// of a state kind: the strong, intermediate and weak ranges of either
    /// sign.
    #[test]
    #[ignore = "release-only: 3·10⁸ pairs; run with `cargo test --release -- --ignored`"]
    fn transition_equals_update_on_every_arithmetic_path_pair() {
        use rand::{Rng, SeedableRng};
        for budget in [1_026u64, 4_098, 16_340, 100_001] {
            let p = Avc::with_states(budget).unwrap();
            let s = p.num_states();
            let states: Vec<AvcState> = (0..s).map(|id| p.decode(id)).collect();
            let values: Vec<i64> = states.iter().map(|x| x.value()).collect();
            if budget < 100_001 {
                for a in 0..s {
                    for b in 0..s {
                        assert_pair(&p, &states, &values, a, b);
                    }
                }
                continue;
            }
            let (k, d) = (p.strong_per_sign, p.d);
            let ends = [0, k - 1, k, k + d - 1, k + d, k + d + 1, k + d + 2];
            let ends = ends
                .into_iter()
                .chain([k + 2 * d + 1, k + 2 * d + 2, s - 1]);
            for a in ends {
                for b in 0..s {
                    assert_pair(&p, &states, &values, a, b);
                    assert_pair(&p, &states, &values, b, a);
                }
            }
            let mut rng = rand::rngs::SmallRng::seed_from_u64(4);
            for _ in 0..20_000_000 {
                assert_pair(
                    &p,
                    &states,
                    &values,
                    rng.gen_range(0..s),
                    rng.gen_range(0..s),
                );
            }
        }
    }

    #[test]
    fn transitions_stay_in_state_space() {
        for (m, d) in [(1u64, 1u32), (5, 2), (9, 1), (21, 3)] {
            let p = avc(m, d);
            let s = p.num_states();
            for a in 0..s {
                for b in 0..s {
                    let (x, y) = p.transition(a, b);
                    assert!(x < s && y < s);
                }
            }
        }
    }

    #[test]
    fn transition_is_symmetric_up_to_swap() {
        for (m, d) in [(1u64, 1u32), (5, 2), (9, 3)] {
            let p = avc(m, d);
            let s = p.num_states();
            for a in 0..s {
                for b in 0..s {
                    let (x1, y1) = p.transition(a, b);
                    let (x2, y2) = p.transition(b, a);
                    assert!(
                        (x1 == y2 && y1 == x2) || (x1 == x2 && y1 == y2),
                        "asymmetric transition for ({a},{b})"
                    );
                }
            }
        }
    }

    #[test]
    fn weights_never_exceed_m() {
        // The averaging of two values with |v| ≤ m stays within [−m, m].
        for (m, d) in [(5u64, 1u32), (9, 2)] {
            let p = avc(m, d);
            for a in 0..p.num_states() {
                for b in 0..p.num_states() {
                    let (x, y) = p.transition(a, b);
                    assert!(p.decode(x).weight() <= m as i64);
                    assert!(p.decode(y).weight() <= m as i64);
                }
            }
        }
    }

    #[test]
    fn m_equals_one_matches_four_state_protocol() {
        use crate::four_state::FourState;
        let p = avc(1, 1);
        let q = FourState;
        assert_eq!(p.num_states(), q.num_states());
        // Map AVC states to FourState states by (sign, weight).
        let to_fs = |p: &Avc, id: StateId| -> StateId {
            let st = p.decode(id);
            let plus = st.sign() == Sign::Plus;
            match (st.weight(), plus) {
                (1, true) => q.encode_strong(Opinion::A),
                (1, false) => q.encode_strong(Opinion::B),
                (0, true) => q.encode_weak(Opinion::A),
                (0, false) => q.encode_weak(Opinion::B),
                _ => unreachable!("m=1 has no higher weights"),
            }
        };
        for a in 0..p.num_states() {
            assert_eq!(p.output(a), q.output(to_fs(&p, a)));
            for b in 0..p.num_states() {
                let (x, y) = p.transition(a, b);
                let (u, v) = q.transition(to_fs(&p, a), to_fs(&p, b));
                let mut got = [to_fs(&p, x), to_fs(&p, y)];
                let mut want = [u, v];
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "mismatch at ({a},{b})");
            }
        }
    }

    #[test]
    fn inputs_are_extremal_states() {
        let p = avc(9, 2);
        assert_eq!(p.decode(p.input(Opinion::A)), AvcState::Strong(9));
        assert_eq!(p.decode(p.input(Opinion::B)), AvcState::Strong(-9));
        let p1 = avc(1, 2);
        assert_eq!(p1.decode(p1.input(Opinion::A)), inter(Sign::Plus, 1));
        assert_eq!(p1.decode(p1.input(Opinion::B)), inter(Sign::Minus, 1));
    }

    #[test]
    fn outputs_follow_sign() {
        let p = avc(5, 2);
        for id in 0..p.num_states() {
            let expected = match p.decode(id).sign() {
                Sign::Plus => Opinion::A,
                Sign::Minus => Opinion::B,
            };
            assert_eq!(p.output(id), expected);
        }
    }

    #[test]
    fn total_value_tracks_initial_margin() {
        let p = avc(5, 1);
        let config = avc_population::Config::from_input(&p, 7, 4);
        assert_eq!(p.total_value(config.as_slice()), (7 - 4) * 5);
    }

    #[test]
    fn state_labels_are_readable() {
        let p = avc(5, 2);
        assert_eq!(p.state_label(p.encode(AvcState::Strong(-5))), "-5");
        assert_eq!(p.state_label(p.encode(inter(Sign::Plus, 2))), "+1_2");
        assert_eq!(p.state_label(p.encode(AvcState::Weak(Sign::Minus))), "-0");
    }
}
