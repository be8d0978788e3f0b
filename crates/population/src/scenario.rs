//! The scenario plane: one declarative description of a run, one builder.
//!
//! A [`Scenario`] names everything that determines a batch of trials —
//! protocol, majority instance, engine, scheduler, fault plan, convergence
//! rule, step budget, and seed policy — as plain data with a canonical JSON
//! round-trip ([`Scenario::canonical`] / [`Scenario::parse`]) and a stable
//! content hash ([`Scenario::hash`], the SHA-256 of the canonical form).
//! Store manifests embed this canonical form, so a recorded cell can be
//! re-run byte-identically from its manifest alone, and scenario files
//! (`examples/scenarios/*.json`) are executable documentation via
//! `avc run`.
//!
//! [`build_erased`] is the **single** place in the workspace where an
//! engine choice becomes a simulator: it matches on [`EngineKind`] and
//! [`SchedulerSpec`] once and returns a `Box<dyn Simulator>`. The erasure
//! costs one virtual call per *chunk* — the chunk loops behind it are the
//! same [`Simulator::advance_chunk`] code concrete dispatch runs, so
//! trajectories and RNG streams are bit-identical (pinned by
//! `tests/erased_dispatch.rs`).
//!
//! Protocols are named here ([`ProtocolSpec`]) but *resolved* one crate up:
//! `avc-population` cannot depend on `avc-protocols`, so the
//! spec-to-instance mapping lives in `avc_analysis::harness::ScenarioPlan`.

use crate::engine::{AdaptiveSim, AgentSim, CountSim, JumpSim, Simulator};
use crate::faults::{Fault, FaultEvent};
use crate::graph::Graph;
use crate::hash::sha256_hex;
use crate::json::Json;
use crate::protocol::{Opinion, Protocol, StateId};
use crate::sched::{BiasedPair, EpochBatched, LaggardStarving};
use crate::spec::{ConvergenceRule, MajorityInstance};
use crate::telemetry::{NoopSink, Sink};
use crate::Config;
use std::fmt;
use std::str::FromStr;

/// Which simulation engine to use for a batch of trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// Choose automatically: [`AdaptiveSim`], which is near-optimal across
    /// the dense and sparse regimes.
    #[default]
    Auto,
    /// Per-agent engine ([`AgentSim`] on the clique).
    Agent,
    /// Count-based engine ([`CountSim`]).
    Count,
    /// Jump-chain engine with null-step skipping ([`JumpSim`]).
    Jump,
    /// Explicit adaptive engine ([`AdaptiveSim`]).
    Adaptive,
}

impl EngineKind {
    /// The four concrete engines in bench order (excludes the
    /// [`EngineKind::Auto`] alias, which resolves to `Adaptive`).
    pub const CONCRETE: [EngineKind; 4] = [
        EngineKind::Agent,
        EngineKind::Count,
        EngineKind::Jump,
        EngineKind::Adaptive,
    ];

    /// The canonical name, as used in scenario files, store manifests, and
    /// bench reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Auto => "auto",
            EngineKind::Agent => "agent",
            EngineKind::Count => "count",
            EngineKind::Jump => "jump",
            EngineKind::Adaptive => "adaptive",
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for EngineKind {
    type Err = String;

    /// Parses a canonical engine name.
    fn from_str(s: &str) -> Result<EngineKind, String> {
        match s {
            "auto" => Ok(EngineKind::Auto),
            "agent" => Ok(EngineKind::Agent),
            "count" => Ok(EngineKind::Count),
            "jump" => Ok(EngineKind::Jump),
            "adaptive" => Ok(EngineKind::Adaptive),
            other => Err(format!(
                "unknown engine `{other}` (auto|agent|count|jump|adaptive)"
            )),
        }
    }
}

/// Which protocol a scenario runs, as pure data.
///
/// The mapping to concrete protocol values lives in `avc-analysis` (this
/// crate cannot depend on `avc-protocols`); adding a protocol means adding
/// a variant here and one resolution arm there — no engine dispatch sites
/// are touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolSpec {
    /// The paper's AVC protocol with maximum weight `m` (odd) and `d`
    /// intermediate levels (`s = m + 2d + 1` states).
    Avc {
        /// Maximum weight (odd, ≥ 1).
        m: u64,
        /// Intermediate levels (≥ 1).
        d: u32,
    },
    /// The \[BEF18] cancel/split/merge exact-majority protocol with `l`
    /// levels (`2l + 4` states).
    Bef {
        /// Number of levels below the input tokens (`1..=32`).
        levels: u32,
    },
    /// The \[DEGSSU21] clocked cancel/split exact-majority protocol with
    /// `l` levels and phase length `t` (`2(l+1)(t+1) + 2` states).
    Degssu {
        /// Number of levels below the input tokens (`1..=32`).
        levels: u32,
        /// Interactions an active token waits at a level (`1..=64`).
        phase: u32,
    },
    /// The four-state exact-majority protocol.
    FourState,
    /// The three-state approximate-majority protocol.
    ThreeState,
    /// The two-state voter model.
    Voter,
}

/// Canonical protocol base names: the single source shared by
/// [`ProtocolSpec`]'s `Display`, `FromStr` (including its error hint), and
/// the CLI help text. Adding a protocol means adding a constant here and
/// a row to [`ProtocolSpec::SYNTAX`] — nothing else enumerates names.
mod protocol_names {
    /// The paper's Average-and-Conquer protocol.
    pub const AVC: &str = "avc";
    /// Berenbrink–Elsässer–Friedetzky (arXiv:1805.05157).
    pub const BEF: &str = "bef";
    /// Doty et al. (arXiv:2106.10201).
    pub const DEGSSU: &str = "degssu";
    /// The four-state exact-majority protocol.
    pub const FOUR_STATE: &str = "four_state";
    /// The three-state approximate-majority protocol.
    pub const THREE_STATE: &str = "three_state";
    /// The two-state voter model.
    pub const VOTER: &str = "voter";
}

/// Parameter bounds mirrored from `avc-protocols` (this crate cannot
/// depend on it); `avc-analysis` cross-checks that the constructors accept
/// exactly what these bounds admit.
const AVC_MAX_STATES: u64 = 1 << 31;
const BEF_MAX_LEVELS: u32 = 32;
const DEGSSU_MAX_LEVELS: u32 = 32;
const DEGSSU_MAX_PHASE: u32 = 64;

impl ProtocolSpec {
    /// `(base name, parameter syntax)` of every protocol, in `avc help`
    /// order. The base names are the same constants `Display` and
    /// `FromStr` use, so the list cannot drift from the parser.
    pub const SYNTAX: [(&'static str, &'static str); 6] = [
        (protocol_names::AVC, "(m=..,d=..)"),
        (protocol_names::BEF, "(l=..)"),
        (protocol_names::DEGSSU, "(l=..,t=..)"),
        (protocol_names::FOUR_STATE, ""),
        (protocol_names::THREE_STATE, ""),
        (protocol_names::VOTER, ""),
    ];

    /// The `|`-separated syntax hint used by parse errors and CLI help,
    /// derived from [`ProtocolSpec::SYNTAX`].
    #[must_use]
    pub fn syntax_hint() -> String {
        ProtocolSpec::SYNTAX
            .iter()
            .map(|(name, params)| format!("{name}{params}"))
            .collect::<Vec<_>>()
            .join("|")
    }

    /// The canonical base name (the spelling before any parameter list).
    #[must_use]
    pub fn base_name(&self) -> &'static str {
        match self {
            ProtocolSpec::Avc { .. } => protocol_names::AVC,
            ProtocolSpec::Bef { .. } => protocol_names::BEF,
            ProtocolSpec::Degssu { .. } => protocol_names::DEGSSU,
            ProtocolSpec::FourState => protocol_names::FOUR_STATE,
            ProtocolSpec::ThreeState => protocol_names::THREE_STATE,
            ProtocolSpec::Voter => protocol_names::VOTER,
        }
    }

    /// Number of states `s` of the specified protocol, computed from the
    /// documented formulas (`validate` first; the formulas assume valid
    /// parameters).
    #[must_use]
    pub fn state_count(&self) -> u64 {
        match *self {
            ProtocolSpec::Avc { m, d } => m + 2 * d as u64 + 1,
            ProtocolSpec::Bef { levels } => 2 * (levels as u64 + 1) + 2,
            ProtocolSpec::Degssu { levels, phase } => {
                2 * (levels as u64 + 1) * (phase as u64 + 1) + 2
            }
            ProtocolSpec::FourState => 4,
            ProtocolSpec::ThreeState => 3,
            ProtocolSpec::Voter => 2,
        }
    }

    /// Checks the documented parameter invariants, returning a parse-style
    /// error for violations. Called by `FromStr` (so malformed scenarios
    /// are rejected at parse time, not at protocol construction) and by
    /// [`Scenario::from_json`] as a backstop for programmatically built
    /// values.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            ProtocolSpec::Avc { m, d } => {
                if m == 0 || m % 2 == 0 {
                    return Err(format!(
                        "invalid protocol `{self}`: avc m must be odd and >= 1"
                    ));
                }
                if d == 0 {
                    return Err(format!("invalid protocol `{self}`: avc d must be >= 1"));
                }
                let s = m.checked_add(2 * u64::from(d) + 1);
                if s.is_none_or(|s| s > AVC_MAX_STATES) {
                    return Err(format!(
                        "invalid protocol `{self}`: avc s = m + 2d + 1 must be <= \
                         {AVC_MAX_STATES}"
                    ));
                }
            }
            ProtocolSpec::Bef { levels } => {
                if levels == 0 || levels > BEF_MAX_LEVELS {
                    return Err(format!(
                        "invalid protocol `{self}`: bef levels must be in 1..={BEF_MAX_LEVELS}"
                    ));
                }
            }
            ProtocolSpec::Degssu { levels, phase } => {
                if levels == 0 || levels > DEGSSU_MAX_LEVELS {
                    return Err(format!(
                        "invalid protocol `{self}`: degssu levels must be in \
                         1..={DEGSSU_MAX_LEVELS}"
                    ));
                }
                if phase == 0 || phase > DEGSSU_MAX_PHASE {
                    return Err(format!(
                        "invalid protocol `{self}`: degssu phase must be in \
                         1..={DEGSSU_MAX_PHASE}"
                    ));
                }
            }
            ProtocolSpec::FourState | ProtocolSpec::ThreeState | ProtocolSpec::Voter => {}
        }
        Ok(())
    }
}

impl fmt::Display for ProtocolSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = self.base_name();
        match self {
            ProtocolSpec::Avc { m, d } => write!(f, "{name}(m={m},d={d})"),
            ProtocolSpec::Bef { levels } => write!(f, "{name}(l={levels})"),
            ProtocolSpec::Degssu { levels, phase } => write!(f, "{name}(l={levels},t={phase})"),
            ProtocolSpec::FourState | ProtocolSpec::ThreeState | ProtocolSpec::Voter => {
                f.write_str(name)
            }
        }
    }
}

impl FromStr for ProtocolSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<ProtocolSpec, String> {
        let parsed = 'parse: {
            match s {
                _ if s == protocol_names::FOUR_STATE => break 'parse ProtocolSpec::FourState,
                _ if s == protocol_names::THREE_STATE => break 'parse ProtocolSpec::ThreeState,
                _ if s == protocol_names::VOTER => break 'parse ProtocolSpec::Voter,
                _ => {}
            }
            if let Some(body) = s
                .strip_prefix(protocol_names::AVC)
                .and_then(|r| r.strip_prefix("(m="))
                .and_then(|r| r.strip_suffix(')'))
            {
                let (m, d) = body
                    .split_once(",d=")
                    .ok_or_else(|| format!("malformed AVC spec `{s}`"))?;
                let m = m.parse().map_err(|_| format!("bad AVC m in `{s}`"))?;
                let d = d.parse().map_err(|_| format!("bad AVC d in `{s}`"))?;
                break 'parse ProtocolSpec::Avc { m, d };
            }
            if let Some(body) = s
                .strip_prefix(protocol_names::DEGSSU)
                .and_then(|r| r.strip_prefix("(l="))
                .and_then(|r| r.strip_suffix(')'))
            {
                let (levels, phase) = body
                    .split_once(",t=")
                    .ok_or_else(|| format!("malformed DEGSSU spec `{s}`"))?;
                let levels = levels
                    .parse()
                    .map_err(|_| format!("bad DEGSSU l in `{s}`"))?;
                let phase = phase
                    .parse()
                    .map_err(|_| format!("bad DEGSSU t in `{s}`"))?;
                break 'parse ProtocolSpec::Degssu { levels, phase };
            }
            if let Some(body) = s
                .strip_prefix(protocol_names::BEF)
                .and_then(|r| r.strip_prefix("(l="))
                .and_then(|r| r.strip_suffix(')'))
            {
                let levels = body.parse().map_err(|_| format!("bad BEF l in `{s}`"))?;
                break 'parse ProtocolSpec::Bef { levels };
            }
            return Err(format!(
                "unknown protocol `{s}` ({})",
                ProtocolSpec::syntax_hint()
            ));
        };
        parsed.validate()?;
        Ok(parsed)
    }
}

/// Which scheduler a scenario runs under, as pure data.
///
/// The `Display` strings are the exact scheduler descriptions the
/// robustness sweep has always written into its manifests and tables.
/// Non-uniform schedulers need per-agent identity, so [`build_erased`]
/// only accepts them with [`EngineKind::Agent`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerSpec {
    /// The uniform random scheduler (the default; RNG-stream-identical to
    /// the scheduler-free engines).
    Uniform,
    /// [`BiasedPair`] hammering a hot clique of `hot` agents.
    Biased {
        /// Hot-set size.
        hot: u64,
        /// Probability a step stays inside the hot set.
        bias: f64,
    },
    /// [`LaggardStarving`] the `laggards` highest-numbered agents.
    Starved {
        /// Starved-set size.
        laggards: u64,
        /// Steps between laggard-eligible slots.
        period: u64,
    },
    /// [`EpochBatched`] random perfect matchings.
    Epoch,
    /// Uniform pairs on the star (all traffic through one center): the
    /// agent engine built on [`Graph::star`].
    RestrictedStar,
    /// Uniform pairs on the cycle (worst standard spectral gap): the agent
    /// engine built on [`Graph::cycle`].
    RestrictedCycle,
}

impl SchedulerSpec {
    /// Checks the scheduler's parameters against a population of `n`
    /// agents: the bounds its constructor and its pair sampler assert.
    ///
    /// # Errors
    ///
    /// A description of the violated bound.
    fn validate(&self, n: u64) -> Result<(), String> {
        let bad = |why: String| Err(format!("invalid scheduler `{self}`: {why}"));
        match *self {
            SchedulerSpec::Biased { hot, bias } => {
                if hot < 2 || hot > n {
                    return bad(format!("hot must be in 2..={n} (the population)"));
                }
                if !(0.0..1.0).contains(&bias) {
                    return bad("bias must be in [0, 1)".to_string());
                }
            }
            SchedulerSpec::Starved { laggards, period } => {
                if laggards == 0 || laggards + 2 > n {
                    return bad(format!(
                        "laggards must be in 1..={} (two agents of {n} must stay eligible)",
                        n.saturating_sub(2)
                    ));
                }
                if period < 2 {
                    return bad("period must be >= 2".to_string());
                }
            }
            SchedulerSpec::RestrictedCycle if n < 3 => {
                return bad(format!("a cycle needs at least three agents (n = {n})"));
            }
            _ => {}
        }
        Ok(())
    }
}

impl fmt::Display for SchedulerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerSpec::Uniform => f.write_str("uniform"),
            SchedulerSpec::Biased { hot, bias } => write!(f, "biased(hot={hot},bias={bias})"),
            SchedulerSpec::Starved { laggards, period } => {
                write!(f, "starved(laggards={laggards},period={period})")
            }
            SchedulerSpec::Epoch => f.write_str("epoch"),
            SchedulerSpec::RestrictedStar => f.write_str("restricted(star)"),
            SchedulerSpec::RestrictedCycle => f.write_str("restricted(cycle)"),
        }
    }
}

impl FromStr for SchedulerSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<SchedulerSpec, String> {
        match s {
            "uniform" => return Ok(SchedulerSpec::Uniform),
            "epoch" => return Ok(SchedulerSpec::Epoch),
            "restricted(star)" => return Ok(SchedulerSpec::RestrictedStar),
            "restricted(cycle)" => return Ok(SchedulerSpec::RestrictedCycle),
            _ => {}
        }
        if let Some(body) = s
            .strip_prefix("biased(hot=")
            .and_then(|r| r.strip_suffix(')'))
        {
            let (hot, bias) = body
                .split_once(",bias=")
                .ok_or_else(|| format!("malformed scheduler spec `{s}`"))?;
            return Ok(SchedulerSpec::Biased {
                hot: hot.parse().map_err(|_| format!("bad hot in `{s}`"))?,
                bias: bias.parse().map_err(|_| format!("bad bias in `{s}`"))?,
            });
        }
        if let Some(body) = s
            .strip_prefix("starved(laggards=")
            .and_then(|r| r.strip_suffix(')'))
        {
            let (laggards, period) = body
                .split_once(",period=")
                .ok_or_else(|| format!("malformed scheduler spec `{s}`"))?;
            return Ok(SchedulerSpec::Starved {
                laggards: laggards
                    .parse()
                    .map_err(|_| format!("bad laggards in `{s}`"))?,
                period: period.parse().map_err(|_| format!("bad period in `{s}`"))?,
            });
        }
        Err(format!(
            "unknown scheduler `{s}` \
             (uniform|biased(hot=..,bias=..)|starved(laggards=..,period=..)|epoch|\
             restricted(star)|restricted(cycle))"
        ))
    }
}

/// A declarative description of one batch of trials.
///
/// Everything that determines the trials' RNG streams and outcomes is a
/// field here; everything that does not (thread count, observers) is
/// deliberately absent, so the canonical form — and therefore the hash a
/// store manifest embeds — is invariant under execution details.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The protocol under test.
    pub protocol: ProtocolSpec,
    /// The majority instance (initial `a`/`b` split).
    pub instance: MajorityInstance,
    /// The simulation engine.
    pub engine: EngineKind,
    /// The scheduler (non-uniform requires [`EngineKind::Agent`]).
    pub scheduler: SchedulerSpec,
    /// Faults to inject, fired between chunks at their scheduled steps.
    pub faults: Vec<FaultEvent>,
    /// The convergence rule each trial runs to.
    pub rule: ConvergenceRule,
    /// Per-trial step budget (`u64::MAX` = unlimited).
    pub max_steps: u64,
    /// Number of independent trials.
    pub runs: u64,
    /// Master seed.
    pub seed: u64,
    /// Optional seed-stream child index: trial `i` draws from
    /// `SeedSequence::new(seed).child(c).rng_for(i)` instead of
    /// `SeedSequence::new(seed).rng_for(i)`. Grid sweeps (robustness) use
    /// this to give each cell its own stream family.
    pub seed_child: Option<u64>,
}

impl Scenario {
    /// A scenario with the harness defaults: engine `auto`, uniform
    /// scheduler, no faults, output consensus, unlimited steps, 101 runs,
    /// seed 0.
    #[must_use]
    pub fn new(protocol: ProtocolSpec, instance: MajorityInstance) -> Scenario {
        Scenario {
            protocol,
            instance,
            engine: EngineKind::Auto,
            scheduler: SchedulerSpec::Uniform,
            faults: Vec::new(),
            rule: ConvergenceRule::OutputConsensus,
            max_steps: u64::MAX,
            runs: 101,
            seed: 0,
            seed_child: None,
        }
    }

    /// Sets the engine.
    #[must_use]
    pub fn engine(mut self, engine: EngineKind) -> Scenario {
        self.engine = engine;
        self
    }

    /// Sets the scheduler.
    #[must_use]
    pub fn scheduler(mut self, scheduler: SchedulerSpec) -> Scenario {
        self.scheduler = scheduler;
        self
    }

    /// Sets the convergence rule.
    #[must_use]
    pub fn rule(mut self, rule: ConvergenceRule) -> Scenario {
        self.rule = rule;
        self
    }

    /// Caps each trial at `max_steps` scheduler steps.
    #[must_use]
    pub fn max_steps(mut self, max_steps: u64) -> Scenario {
        self.max_steps = max_steps;
        self
    }

    /// Sets the number of trials.
    #[must_use]
    pub fn runs(mut self, runs: u64) -> Scenario {
        self.runs = runs;
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Scenario {
        self.seed = seed;
        self
    }

    /// Routes trial RNGs through child stream `child` of the master seed.
    #[must_use]
    pub fn seed_child(mut self, child: u64) -> Scenario {
        self.seed_child = Some(child);
        self
    }

    /// Appends a fault scheduled at step `at`.
    #[must_use]
    pub fn fault(mut self, at: u64, fault: Fault) -> Scenario {
        self.faults.push(FaultEvent { at_step: at, fault });
        self
    }

    /// The canonical JSON form. Fields at their defaults (uniform
    /// scheduler, no faults, unlimited steps, no seed child) are omitted,
    /// so semantically identical scenarios hash identically.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema", Json::Int(1)),
            ("protocol", Json::str(self.protocol.to_string())),
            (
                "instance",
                Json::obj([
                    ("a", u64_json(self.instance.a())),
                    ("b", u64_json(self.instance.b())),
                ]),
            ),
            ("engine", Json::str(self.engine.name())),
            ("rule", rule_json(self.rule)),
            ("runs", u64_json(self.runs)),
            ("seed", u64_json(self.seed)),
        ];
        if self.scheduler != SchedulerSpec::Uniform {
            fields.push(("scheduler", Json::str(self.scheduler.to_string())));
        }
        if !self.faults.is_empty() {
            fields.push((
                "faults",
                Json::Arr(self.faults.iter().map(fault_json).collect()),
            ));
        }
        if self.max_steps != u64::MAX {
            fields.push(("max_steps", u64_json(self.max_steps)));
        }
        if let Some(child) = self.seed_child {
            fields.push(("seed_child", u64_json(child)));
        }
        Json::obj(fields)
    }

    /// The canonical serialization: compact JSON with sorted keys.
    #[must_use]
    pub fn canonical(&self) -> String {
        self.to_json().to_string_compact()
    }

    /// The SHA-256 of [`Scenario::canonical`], in hex.
    #[must_use]
    pub fn hash(&self) -> String {
        sha256_hex(self.canonical().as_bytes())
    }

    /// Reconstructs a scenario from its JSON form (canonical or hand
    /// written: optional fields may be absent, unknown keys are rejected).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed field.
    pub fn from_json(json: &Json) -> Result<Scenario, String> {
        let obj = json.as_obj().ok_or("scenario must be a JSON object")?;
        for key in obj.keys() {
            const KNOWN: [&str; 11] = [
                "schema",
                "protocol",
                "instance",
                "engine",
                "scheduler",
                "faults",
                "rule",
                "max_steps",
                "runs",
                "seed",
                "seed_child",
            ];
            if !KNOWN.contains(&key.as_str()) {
                return Err(format!("unknown scenario field `{key}`"));
            }
        }
        if let Some(schema) = obj.get("schema") {
            if schema.as_int() != Some(1) {
                return Err("unsupported scenario schema (expected 1)".to_string());
            }
        }
        let str_field = |name: &str| -> Result<&str, String> {
            obj.get(name)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("scenario needs a string `{name}` field"))
        };
        let protocol: ProtocolSpec = str_field("protocol")?.parse()?;
        // `FromStr` already validates; repeat as a backstop so scenarios
        // assembled from a programmatically built (unvalidated) spec are
        // caught here too.
        protocol.validate()?;
        let engine = str_field("engine")?.parse()?;
        let instance = obj
            .get("instance")
            .ok_or("scenario needs an `instance` field")?;
        let a = u64_field(instance, "a")?;
        let b = u64_field(instance, "b")?;
        let Some(n) = a.checked_add(b) else {
            return Err(format!(
                "instance needs a + b <= {} agents (got {a} + {b})",
                u64::MAX
            ));
        };
        if n < 2 {
            return Err(format!("instance needs a + b >= 2 agents (got {a} + {b})"));
        }
        let scheduler = match obj.get("scheduler") {
            Some(s) => s.as_str().ok_or("`scheduler` must be a string")?.parse()?,
            None => SchedulerSpec::Uniform,
        };
        let faults = match obj.get("faults") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(fault_from_json)
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err("`faults` must be an array".to_string()),
            None => Vec::new(),
        };
        let rule = rule_from_json(obj.get("rule").ok_or("scenario needs a `rule` field")?)?;
        let max_steps = match obj.get("max_steps") {
            Some(v) => u64_value(v, "max_steps")?,
            None => u64::MAX,
        };
        let seed_child = match obj.get("seed_child") {
            Some(v) => Some(u64_value(v, "seed_child")?),
            None => None,
        };
        let scenario = Scenario {
            protocol,
            instance: MajorityInstance::new(a, b),
            engine,
            scheduler,
            faults,
            rule,
            max_steps,
            runs: u64_field(json, "runs")?,
            seed: u64_field(json, "seed")?,
            seed_child,
        };
        scenario.validate()?;
        Ok(scenario)
    }

    /// Checks that the scenario runs at least one trial and that every
    /// trial can run: the scheduler suits the engine and the population,
    /// the population fits the engine's counts, and every fault names
    /// agents and states that exist, on an engine that can apply it. Each
    /// of these would otherwise panic a trial worker or leave a batch with
    /// nothing to report; [`Scenario::from_json`] calls this, so no parsed
    /// scenario does either for these reasons.
    ///
    /// # Errors
    ///
    /// A description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.runs == 0 {
            return Err("runs = 0: a scenario needs at least one run".to_string());
        }
        let n = self.instance.population();
        if self.scheduler != SchedulerSpec::Uniform && self.engine != EngineKind::Agent {
            return Err(format!(
                "scheduler `{}` needs per-agent scheduling — set \"engine\": \"agent\" \
                 (got `{}`)",
                self.scheduler, self.engine
            ));
        }
        self.scheduler.validate(n)?;
        let count_space = matches!(
            self.engine,
            EngineKind::Count | EngineKind::Auto | EngineKind::Adaptive
        );
        if count_space && n > u64::from(u32::MAX) {
            return Err(format!(
                "population n = {n} exceeds {}, the most agents the `{}` engine's count \
                 sampler holds — set \"engine\": \"agent\" or \"jump\"",
                u32::MAX,
                self.engine
            ));
        }
        let states = self.protocol.state_count();
        for (i, event) in self.faults.iter().enumerate() {
            let fault = event.fault;
            let bad = |why: String| {
                Err(format!(
                    "fault {i} (`{fault}` at step {}) {why}",
                    event.at_step
                ))
            };
            if let Fault::Corrupt { from, to, .. } = fault {
                if let Some(state) = [from, to].into_iter().find(|&s| u64::from(s) >= states) {
                    return bad(format!(
                        "names state {state}, outside the {states} states of `{}`",
                        self.protocol
                    ));
                }
            }
            if let Fault::BitFlip { bit, .. } = fault {
                if bit >= 32 {
                    return bad(format!("flips bit {bit} of a 32-bit state id"));
                }
            }
            if let Some(agent) = fault.agent() {
                if self.engine != EngineKind::Agent {
                    return bad(format!(
                        "addresses an agent, which needs per-agent identity — set \
                         \"engine\": \"agent\" (got `{}`)",
                        self.engine
                    ));
                }
                if agent as u64 >= n {
                    return bad(format!(
                        "addresses agent {agent}, outside the population of n = {n}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Parses a scenario from JSON text (e.g. a scenario file).
    ///
    /// # Errors
    ///
    /// As [`Json::parse`] and [`Scenario::from_json`].
    pub fn parse(text: &str) -> Result<Scenario, String> {
        Scenario::from_json(&Json::parse(text)?)
    }
}

/// Encodes a `u64` losslessly: as a JSON integer when it fits `i64`, else
/// as a decimal string (the canonical JSON layer rejects non-`i64`
/// numbers).
fn u64_json(value: u64) -> Json {
    i64::try_from(value).map_or_else(|_| Json::str(value.to_string()), Json::Int)
}

/// Decodes [`u64_json`]'s output (either spelling).
fn u64_value(json: &Json, what: &str) -> Result<u64, String> {
    match json {
        Json::Int(i) => u64::try_from(*i).map_err(|_| format!("`{what}` must be non-negative")),
        Json::Str(s) => s
            .as_str()
            .parse()
            .map_err(|_| format!("`{what}` must be a u64 (got `{s}`)")),
        _ => Err(format!("`{what}` must be an integer")),
    }
}

fn u64_field(json: &Json, name: &str) -> Result<u64, String> {
    u64_value(
        json.get(name)
            .ok_or_else(|| format!("missing `{name}` field"))?,
        name,
    )
}

fn opinion_json(opinion: Opinion) -> Json {
    Json::str(match opinion {
        Opinion::A => "A",
        Opinion::B => "B",
    })
}

fn opinion_from(text: &str) -> Result<Opinion, String> {
    match text {
        "A" => Ok(Opinion::A),
        "B" => Ok(Opinion::B),
        other => Err(format!("unknown opinion `{other}` (A|B)")),
    }
}

fn rule_json(rule: ConvergenceRule) -> Json {
    match rule {
        ConvergenceRule::OutputConsensus => Json::str("output_consensus"),
        ConvergenceRule::StateConsensus => Json::str("state_consensus"),
        ConvergenceRule::Silence => Json::str("silence"),
        ConvergenceRule::OutputCount { opinion, count } => Json::obj([
            ("name", Json::str("output_count")),
            ("opinion", opinion_json(opinion)),
            ("count", u64_json(count)),
        ]),
    }
}

fn rule_from_json(json: &Json) -> Result<ConvergenceRule, String> {
    if let Some(name) = json.as_str() {
        return match name {
            "output_consensus" => Ok(ConvergenceRule::OutputConsensus),
            "state_consensus" => Ok(ConvergenceRule::StateConsensus),
            "silence" => Ok(ConvergenceRule::Silence),
            other => Err(format!(
                "unknown rule `{other}` (output_consensus|state_consensus|silence|output_count)"
            )),
        };
    }
    if json.get("name").and_then(Json::as_str) == Some("output_count") {
        let opinion = opinion_from(
            json.get("opinion")
                .and_then(Json::as_str)
                .ok_or("output_count rule needs an `opinion`")?,
        )?;
        let count = u64_field(json, "count")?;
        return Ok(ConvergenceRule::OutputCount { opinion, count });
    }
    Err("malformed `rule` field".to_string())
}

fn state_json(state: StateId) -> Json {
    Json::Int(i64::from(state))
}

fn state_from(json: &Json, what: &str) -> Result<StateId, String> {
    u64_value(
        json.get(what).ok_or_else(|| format!("missing `{what}`"))?,
        what,
    )
    .and_then(|v| StateId::try_from(v).map_err(|_| format!("`{what}` out of StateId range")))
}

fn agent_from(json: &Json) -> Result<usize, String> {
    u64_field(json, "agent")
        .and_then(|v| usize::try_from(v).map_err(|_| "`agent` out of range".to_string()))
}

fn fault_json(event: &FaultEvent) -> Json {
    let at = ("at", u64_json(event.at_step));
    let agent_fault = |kind: &str, agent: usize| {
        Json::obj([
            at.clone(),
            ("kind", Json::str(kind)),
            ("agent", u64_json(agent as u64)),
        ])
    };
    match event.fault {
        Fault::Corrupt { from, to, agents } => Json::obj([
            at,
            ("kind", Json::str("corrupt")),
            ("from", state_json(from)),
            ("to", state_json(to)),
            ("agents", u64_json(agents)),
        ]),
        Fault::BitFlip { agent, bit } => Json::obj([
            at,
            ("kind", Json::str("bit_flip")),
            ("agent", u64_json(agent as u64)),
            ("bit", Json::Int(i64::from(bit))),
        ]),
        Fault::Crash { agent } => agent_fault("crash", agent),
        Fault::Revive { agent } => agent_fault("revive", agent),
        Fault::StickAt { agent } => agent_fault("stick_at", agent),
        Fault::Unstick { agent } => agent_fault("unstick", agent),
    }
}

fn fault_from_json(json: &Json) -> Result<FaultEvent, String> {
    let at_step = u64_field(json, "at")?;
    let kind = json
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("fault needs a string `kind`")?;
    let fault = match kind {
        "corrupt" => Fault::Corrupt {
            from: state_from(json, "from")?,
            to: state_from(json, "to")?,
            agents: u64_field(json, "agents")?,
        },
        "bit_flip" => Fault::BitFlip {
            agent: agent_from(json)?,
            bit: u64_field(json, "bit")
                .and_then(|v| u32::try_from(v).map_err(|_| "`bit` out of range".to_string()))?,
        },
        "crash" => Fault::Crash {
            agent: agent_from(json)?,
        },
        "revive" => Fault::Revive {
            agent: agent_from(json)?,
        },
        "stick_at" => Fault::StickAt {
            agent: agent_from(json)?,
        },
        "unstick" => Fault::Unstick {
            agent: agent_from(json)?,
        },
        other => {
            return Err(format!(
                "unknown fault kind `{other}` \
                 (corrupt|bit_flip|crash|revive|stick_at|unstick)"
            ))
        }
    };
    Ok(FaultEvent { at_step, fault })
}

/// Builds the erased simulator for an engine/scheduler choice — the single
/// dispatch site turning kind enums into engine values.
///
/// Construction is identical to what the pre-scenario call sites did
/// (`AgentSim::new` on the clique, `CountSim::new`, …), so RNG streams are
/// unchanged. Non-uniform schedulers are monomorphized into [`AgentSim`]'s
/// hot loop and therefore require [`EngineKind::Agent`].
///
/// # Errors
///
/// A description of the unsupported combination (non-uniform scheduler on
/// a count-space engine).
pub fn build_erased<'a, P>(
    protocol: P,
    config: Config,
    engine: EngineKind,
    scheduler: &SchedulerSpec,
) -> Result<Box<dyn Simulator + 'a>, String>
where
    P: Protocol + Clone + 'a,
{
    build_erased_with_sink(protocol, config, engine, scheduler, NoopSink)
}

/// As [`build_erased`], attaching a telemetry sink to the engine.
///
/// With the default [`NoopSink`] the sink hooks compile to nothing, so
/// [`build_erased`] is exactly this function; instrumented callers lend a
/// `&mut CountingSink` (the `Sink for &mut T` forwarding impl).
///
/// # Errors
///
/// As [`build_erased`].
pub fn build_erased_with_sink<'a, P, T>(
    protocol: P,
    config: Config,
    engine: EngineKind,
    scheduler: &SchedulerSpec,
    sink: T,
) -> Result<Box<dyn Simulator + 'a>, String>
where
    P: Protocol + Clone + 'a,
    T: Sink + 'a,
{
    if *scheduler != SchedulerSpec::Uniform && engine != EngineKind::Agent {
        return Err(format!(
            "scheduler `{scheduler}` needs per-agent scheduling — \
             only the `agent` engine supports it (got `{engine}`)"
        ));
    }
    let n = config.population() as usize;
    Ok(match *scheduler {
        SchedulerSpec::Uniform => match engine {
            EngineKind::Agent => {
                Box::new(AgentSim::new(protocol, config, Graph::clique(n)).with_telemetry(sink))
            }
            EngineKind::Count => Box::new(CountSim::new(protocol, config).with_telemetry(sink)),
            EngineKind::Jump => Box::new(JumpSim::new(protocol, config).with_telemetry(sink)),
            EngineKind::Auto | EngineKind::Adaptive => {
                Box::new(AdaptiveSim::new(protocol, config).with_telemetry(sink))
            }
        },
        SchedulerSpec::Biased { hot, bias } => Box::new(
            AgentSim::with_scheduler(
                protocol,
                config,
                Graph::clique(n),
                BiasedPair::new(hot as usize, bias),
            )
            .with_telemetry(sink),
        ),
        SchedulerSpec::Starved { laggards, period } => Box::new(
            AgentSim::with_scheduler(
                protocol,
                config,
                Graph::clique(n),
                LaggardStarving::new(laggards as usize, period),
            )
            .with_telemetry(sink),
        ),
        SchedulerSpec::Epoch => Box::new(
            AgentSim::with_scheduler(protocol, config, Graph::clique(n), EpochBatched::new())
                .with_telemetry(sink),
        ),
        SchedulerSpec::RestrictedStar => {
            Box::new(AgentSim::new(protocol, config, Graph::star(n)).with_telemetry(sink))
        }
        SchedulerSpec::RestrictedCycle => {
            Box::new(AgentSim::new(protocol, config, Graph::cycle(n)).with_telemetry(sink))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Scenario {
        Scenario::new(
            ProtocolSpec::Avc { m: 7, d: 1 },
            MajorityInstance::new(31, 10),
        )
        .engine(EngineKind::Agent)
        .scheduler(SchedulerSpec::RestrictedStar)
        .max_steps(10_000_000)
        .runs(6)
        .seed(77)
        .seed_child(4)
        .fault(
            41,
            Fault::Corrupt {
                from: 0,
                to: 1,
                agents: 2,
            },
        )
    }

    #[test]
    fn canonical_round_trips() {
        let scenario = sample();
        let reparsed = Scenario::parse(&scenario.canonical()).unwrap();
        assert_eq!(reparsed, scenario);
        assert_eq!(reparsed.canonical(), scenario.canonical());
        assert_eq!(reparsed.hash(), scenario.hash());
    }

    #[test]
    fn defaults_are_omitted_from_canonical_form() {
        let scenario = Scenario::new(ProtocolSpec::FourState, MajorityInstance::new(6, 5));
        let canonical = scenario.canonical();
        for absent in ["scheduler", "faults", "max_steps", "seed_child"] {
            assert!(!canonical.contains(absent), "{absent} in {canonical}");
        }
        assert_eq!(Scenario::parse(&canonical).unwrap(), scenario);
    }

    #[test]
    fn kind_names_round_trip() {
        for engine in std::iter::once(EngineKind::Auto).chain(EngineKind::CONCRETE) {
            assert_eq!(engine.name().parse::<EngineKind>().unwrap(), engine);
        }
        // The removed approximate engine's two spellings no longer parse
        // (split so that a search for the engine finds only its history).
        for removed in [concat!("tau", "_leap"), concat!("tau", "-leap")] {
            assert_eq!(
                removed.parse::<EngineKind>().unwrap_err(),
                format!("unknown engine `{removed}` (auto|agent|count|jump|adaptive)")
            );
        }
        for protocol in [
            ProtocolSpec::Avc { m: 17, d: 3 },
            ProtocolSpec::Bef { levels: 10 },
            ProtocolSpec::Degssu {
                levels: 10,
                phase: 4,
            },
            ProtocolSpec::ThreeState,
            ProtocolSpec::Voter,
        ] {
            assert_eq!(
                protocol.to_string().parse::<ProtocolSpec>().unwrap(),
                protocol
            );
        }
        for scheduler in [
            SchedulerSpec::Uniform,
            SchedulerSpec::Biased { hot: 4, bias: 0.5 },
            SchedulerSpec::Starved {
                laggards: 10,
                period: 16,
            },
            SchedulerSpec::RestrictedCycle,
        ] {
            assert_eq!(
                scheduler.to_string().parse::<SchedulerSpec>().unwrap(),
                scheduler
            );
        }
    }

    #[test]
    fn rejects_unknown_fields_and_schemas() {
        assert!(Scenario::parse(r#"{"bogus": 1}"#).is_err());
        let mut json = sample().to_json();
        if let Json::Obj(map) = &mut json {
            map.insert("schema".to_string(), Json::Int(2));
        }
        assert!(Scenario::from_json(&json).is_err());
    }

    #[test]
    fn builder_rejects_scheduler_on_count_engines() {
        use crate::protocol::tests_support::Voter;
        let config = Config::from_input(&Voter, 5, 3);
        let err = build_erased(Voter, config, EngineKind::Count, &SchedulerSpec::Epoch)
            .err()
            .expect("count + epoch must be rejected");
        assert!(err.contains("agent"), "{err}");
    }

    #[test]
    fn invalid_avc_parameters_are_rejected_at_parse_time() {
        // The two documented-invariant violations that used to slip
        // through and panic later at protocol construction.
        assert_eq!(
            "avc(m=2,d=0)".parse::<ProtocolSpec>().unwrap_err(),
            "invalid protocol `avc(m=2,d=0)`: avc m must be odd and >= 1"
        );
        assert_eq!(
            "avc(m=0,d=1)".parse::<ProtocolSpec>().unwrap_err(),
            "invalid protocol `avc(m=0,d=1)`: avc m must be odd and >= 1"
        );
        assert_eq!(
            "avc(m=3,d=0)".parse::<ProtocolSpec>().unwrap_err(),
            "invalid protocol `avc(m=3,d=0)`: avc d must be >= 1"
        );
        assert!("avc(m=3,d=1)".parse::<ProtocolSpec>().is_ok());
        // s = m + 2d + 1 <= 2³¹, so state ids fit u32 (checked without
        // overflow even at u64::MAX).
        assert!("avc(m=2147483645,d=1)".parse::<ProtocolSpec>().is_ok());
        for spec in [
            "avc(m=2147483647,d=1)",
            "avc(m=4294967297,d=1)",
            "avc(m=18446744073709551615,d=4294967295)",
        ] {
            assert_eq!(
                spec.parse::<ProtocolSpec>().unwrap_err(),
                format!("invalid protocol `{spec}`: avc s = m + 2d + 1 must be <= 2147483648")
            );
        }
    }

    #[test]
    fn invalid_rival_parameters_are_rejected_at_parse_time() {
        assert!("bef(l=0)".parse::<ProtocolSpec>().is_err());
        assert!("bef(l=33)".parse::<ProtocolSpec>().is_err());
        assert!("bef(l=32)".parse::<ProtocolSpec>().is_ok());
        assert!("degssu(l=0,t=4)".parse::<ProtocolSpec>().is_err());
        assert!("degssu(l=4,t=0)".parse::<ProtocolSpec>().is_err());
        assert!("degssu(l=4,t=65)".parse::<ProtocolSpec>().is_err());
        assert!("degssu(l=32,t=64)".parse::<ProtocolSpec>().is_ok());
    }

    #[test]
    fn scenario_json_rejects_invalid_avc_parameters() {
        let mut scenario = sample();
        scenario.protocol = ProtocolSpec::Avc { m: 2, d: 0 };
        let err = Scenario::parse(&scenario.canonical()).unwrap_err();
        assert!(err.contains("avc m must be odd"), "{err}");
    }

    #[test]
    fn unknown_protocol_hint_tracks_the_syntax_list() {
        let err = "no_such_protocol".parse::<ProtocolSpec>().unwrap_err();
        assert_eq!(
            err,
            format!(
                "unknown protocol `no_such_protocol` ({})",
                ProtocolSpec::syntax_hint()
            )
        );
        // Every syntax row's base name is what `Display` prints for the
        // matching variant, so the hint cannot drift from the parser.
        for spec in [
            ProtocolSpec::Avc { m: 1, d: 1 },
            ProtocolSpec::Bef { levels: 1 },
            ProtocolSpec::Degssu {
                levels: 1,
                phase: 1,
            },
            ProtocolSpec::FourState,
            ProtocolSpec::ThreeState,
            ProtocolSpec::Voter,
        ] {
            assert!(
                ProtocolSpec::SYNTAX
                    .iter()
                    .any(|(name, _)| *name == spec.base_name()),
                "{spec} missing from SYNTAX"
            );
            assert!(spec.to_string().starts_with(spec.base_name()));
        }
    }

    #[test]
    fn state_count_formulas() {
        assert_eq!(ProtocolSpec::Avc { m: 15, d: 1 }.state_count(), 18);
        assert_eq!(ProtocolSpec::Bef { levels: 8 }.state_count(), 20);
        assert_eq!(
            ProtocolSpec::Degssu {
                levels: 3,
                phase: 2
            }
            .state_count(),
            26
        );
        assert_eq!(ProtocolSpec::FourState.state_count(), 4);
        assert_eq!(ProtocolSpec::ThreeState.state_count(), 3);
        assert_eq!(ProtocolSpec::Voter.state_count(), 2);
    }
}
