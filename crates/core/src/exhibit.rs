//! The exhibit registry: every paper exhibit, defined once.
//!
//! An [`Exhibit`] is a function of a finished [`Study`]: rows of (metric,
//! paper value, measured value) and, for the plotted figures, the full
//! series. The registry covers the abstract's headline claims, Figures
//! 1–9, Tables 1–2, the §4 campaign numbers, the §6 operator artifacts,
//! the daily churn series and the four ablations. [`write_exhibits`]
//! renders them all into `exhibits.md` and one `exhibits/<id>.tsv` per
//! series; `address-reuse study --out DIR` calls it, and EXPERIMENTS.md
//! pastes its tables from that Markdown.
//!
//! Paper counts compare against the measured ones at the study's scale,
//! so the rows that quote an absolute count also give it divided by the
//! scale, in parentheses.

use crate::churn::churn;
use crate::coverage::coverage;
use crate::duration::durations;
use crate::funnel::funnel;
use crate::impact::impact;
use crate::perlist::{census_per_list, dynamic_per_list, natted_per_list, PerListCounts};
use crate::preassign::assess_pool;
use crate::quality::scorecard;
use crate::report::{reused_address_list, ReuseEvidence};
use crate::study::Study;
use ar_atlas::{detect_dynamic, interchange_histogram, PipelineConfig};
use ar_blocklists::policy::{split_feed, GreylistPolicy};
use ar_crawler::{crawl, CrawlConfig, IpObservation, Sighting};
use ar_dht::{NodeId, SimNetwork, SimParams};
use ar_index::IpSet;
use ar_simnet::alloc::{AllocationPlan, InterestSet};
use ar_simnet::time::{date, SimDuration, SimTime, TimeWindow};
use ar_survey::{figure9, generate_respondents, table1, SurveyTargets, FIG9_USAGE};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One paper-vs-measured row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    pub metric: String,
    pub paper: String,
    pub measured: String,
}

/// A plotted series: column names and one line of cells per point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Series {
    pub columns: &'static [&'static str],
    pub rows: Vec<Vec<String>>,
}

/// One exhibit of the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exhibit {
    /// Stable id: names the TSV file and tags the Markdown heading.
    pub id: &'static str,
    pub title: &'static str,
    pub rows: Vec<Row>,
    pub series: Option<Series>,
}

impl Exhibit {
    fn new(id: &'static str, title: &'static str, rows: Vec<Row>) -> Exhibit {
        Exhibit {
            id,
            title,
            rows,
            series: None,
        }
    }

    fn with_series(mut self, columns: &'static [&'static str], rows: Vec<Vec<String>>) -> Exhibit {
        self.series = Some(Series { columns, rows });
        self
    }
}

/// Every exhibit builder, in the order `exhibits.md` lists them.
const REGISTRY: [fn(&Study) -> Exhibit; 19] = [
    headline,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    table1_survey,
    table2,
    section4,
    section6,
    churn_series,
    ablation_pingverify,
    ablation_knee,
    ablation_prefix,
    ablation_vantage,
];

/// Build every exhibit of a finished study.
pub fn exhibits(study: &Study) -> Vec<Exhibit> {
    REGISTRY.iter().map(|build| build(study)).collect()
}

/// Render the paper-vs-measured tables as one Markdown document.
pub fn render_markdown(study: &Study, exhibits: &[Exhibit]) -> String {
    let mut out = format!(
        "# Paper vs measured: seed {}, scale 1:{}\n\n",
        study.config.seed.0, study.config.universe.scale.0
    );
    for e in exhibits {
        let _ = write!(
            out,
            "## {} (`{}`)\n\n| metric | paper | measured |\n|---|---|---|\n",
            e.title, e.id
        );
        for r in &e.rows {
            let _ = writeln!(out, "| {} | {} | {} |", r.metric, r.paper, r.measured);
        }
        out.push('\n');
    }
    out
}

/// Render a series as TSV: a `#`-prefixed header line, then one line per
/// point.
pub fn render_tsv(series: &Series) -> String {
    let mut out = format!("# {}\n", series.columns.join("\t"));
    for row in &series.rows {
        out.push_str(&row.join("\t"));
        out.push('\n');
    }
    out
}

/// Write `dir/exhibits.md` and `dir/exhibits/<id>.tsv` for every exhibit
/// with a series. Returns the number of exhibits.
pub fn write_exhibits(study: &Study, dir: &Path) -> std::io::Result<usize> {
    let exhibits = exhibits(study);
    std::fs::write(dir.join("exhibits.md"), render_markdown(study, &exhibits))?;
    let tsv_dir = dir.join("exhibits");
    std::fs::create_dir_all(&tsv_dir)?;
    for e in &exhibits {
        if let Some(series) = &e.series {
            std::fs::write(tsv_dir.join(format!("{}.tsv", e.id)), render_tsv(series))?;
        }
    }
    Ok(exhibits.len())
}

// ---- formatting -------------------------------------------------------------

fn row(metric: impl Into<String>, paper: impl ToString, measured: impl ToString) -> Row {
    Row {
        metric: metric.into(),
        paper: paper.to_string(),
        measured: measured.to_string(),
    }
}

fn share(num: usize, den: usize) -> f64 {
    num as f64 / den.max(1) as f64
}

fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Paper counts that more than one exhibit quotes: (as printed, value).
const BITTORRENT_IPS: (&str, f64) = ("48.7M", 48_700_000.0);
const NATTED_IPS: (&str, f64) = ("2M", 2_000_000.0);
const NATTED_BLOCKLISTED: (&str, f64) = ("29.7K", 29_700.0);
const BLOCKLISTED: (&str, f64) = ("2.2M", 2_200_000.0);
const CRAWL_SCOPE: (&str, f64) = ("899K", 899_000.0);

/// A paper count with its value at the study's scale: `29.7K (15)`.
fn scaled(study: &Study, (printed, value): (&str, f64)) -> String {
    let scale = f64::from(study.config.universe.scale.0);
    format!("{printed} ({:.0})", value / scale)
}

// ---- the exhibits -----------------------------------------------------------

/// The abstract's headline claims.
fn headline(study: &Study) -> Exhibit {
    let lists = study.blocklists.catalog.len();
    let with_any = |c: &PerListCounts| {
        let n = lists - c.lists_with_none;
        format!("{:.0}% ({n}/{lists})", 100.0 * share(n, lists))
    };
    let nat = natted_per_list(study);
    let dynamic = dynamic_per_list(study);
    Exhibit::new(
        "abstract",
        "Headline claims (abstract)",
        vec![
            row("blocklists listing NATed addresses", "60%", with_any(&nat)),
            row(
                "blocklists listing dynamic addresses",
                "53%",
                with_any(&dynamic),
            ),
            row(
                "listings of reused addresses (NATed / dynamic)",
                "45.1K / 30.6K",
                format!("{} / {}", nat.listings, dynamic.listings),
            ),
            row(
                "users behind one listed address (max)",
                78,
                impact(study).summary().max_users,
            ),
            row(
                "days a reused address stays listed (max)",
                44,
                format!("{:.0}", durations(study).summary().max_days),
            ),
        ],
    )
}

/// Figure 1: the NAT-verification walkthrough, re-enacted. IP1 and IP2
/// each surface with two ports; IP1 answers the bt_ping round on one port
/// (the other was stale), IP2 on both with distinct node_ids.
fn fig1(_study: &Study) -> Exhibit {
    let (t0, t1) = (SimTime(0), SimTime(3600));
    let id = |n: u8| NodeId([n; 20]);
    let mut ip1 = IpObservation::default();
    ip1.record(2215, id(1), t0, Sighting::Advertised);
    ip1.record(12281, id(2), t0, Sighting::Advertised);
    let mut ip2 = IpObservation::default();
    ip2.record(155, id(3), t0, Sighting::Advertised);
    ip2.record(1821, id(4), t0, Sighting::Advertised);
    let candidates = ip1.is_multiport() && ip2.is_multiport();
    ip1.apply_round(t1, &[(12281, id(2))]);
    ip2.apply_round(t1, &[(155, id(3)), (1821, id(4))]);
    // One client that re-bound mid-round: two ports, ONE node_id.
    let mut rebind = IpObservation::default();
    rebind.apply_round(t1, &[(5000, id(9)), (5001, id(9))]);
    Exhibit::new(
        "fig1",
        "Figure 1: the crawler's NAT verification, re-enacted",
        vec![
            row(
                "IP1 and IP2 become bt_ping candidates",
                "yes",
                if candidates { "yes" } else { "no" },
            ),
            row(
                "IP1 verdict (ports 2215 and 12281, one replies)",
                "not NATed",
                format!("{:?}", ip1.class()),
            ),
            row(
                "IP2 verdict (ports 155 and 1821, both reply)",
                "NATed",
                format!("{:?}", ip2.class()),
            ),
            row(
                "IP2 simultaneous users",
                "≥2",
                format!("≥{}", ip2.nat.map_or(0, |n| n.max_simultaneous_users)),
            ),
            row(
                "two ports replying with one node_id",
                "not NATed",
                format!("{:?}", rebind.class()),
            ),
        ],
    )
}

/// Figure 2: IP addresses allocated to RIPE Atlas probes.
fn fig2(study: &Study) -> Exhibit {
    let d = &study.atlas;
    let total = d.all.probes.len();
    let same_as = |pred: fn(u32) -> bool| {
        d.summaries
            .iter()
            .filter(|s| s.as_count <= 1 && pred(s.allocation_count))
            .count()
    };
    let pct_of = |n: usize| pct(share(n, total));
    let mut rows = vec![
        row("probes observed", "15,703", total),
        row(
            "multi-AS probes (excluded)",
            "13.1%",
            pct_of(total - d.same_as.probes.len()),
        ),
        row(
            "probes with no address change",
            "59%",
            pct_of(same_as(|n| n <= 1)),
        ),
        row(
            "probes with multiple changes",
            "27%",
            pct_of(same_as(|n| n > 1)),
        ),
        row("knee of the allocation curve", 8, d.knee),
        row(
            "probes ≥ knee (frequent)",
            "16.6%",
            pct_of(d.frequent.probes.len()),
        ),
        row(
            "probes changing daily (final)",
            "4%",
            pct_of(d.daily.probes.len()),
        ),
    ];
    // Mean days between changes; bucket 0 holds the daily changers.
    let hist = interchange_histogram(&d.summaries, 10);
    for (day, count) in hist.iter().enumerate() {
        let bucket = if day + 1 == hist.len() {
            format!("{day}+")
        } else {
            format!("{day}-{}", day + 1)
        };
        rows.push(row(
            format!("probes changing every {bucket} days"),
            "—",
            count,
        ));
    }
    // The sorted curve itself (log-y in the paper).
    let mut counts: Vec<u32> = d
        .summaries
        .iter()
        .filter(|s| s.as_count <= 1)
        .map(|s| s.allocation_count)
        .collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    Exhibit::new(
        "fig2",
        "Figure 2: addresses allocated to RIPE Atlas probes",
        rows,
    )
    .with_series(
        &["rank", "allocations"],
        counts
            .iter()
            .enumerate()
            .map(|(i, c)| vec![(i + 1).to_string(), c.to_string()])
            .collect(),
    )
}

/// Figure 3: CDF of blocklisted and reused addresses across ASes.
fn fig3(study: &Study) -> Exhibit {
    let c = coverage(study);
    let of_ases = |n: usize| format!("{n} ({})", pct(share(n, c.ases_blocklisted)));
    Exhibit::new(
        "fig3",
        "Figure 3: AS coverage of blocklisted and reused addresses",
        vec![
            row("ASes with blocklisted addresses", "26K", c.ases_blocklisted),
            row(
                "…with blocklisted BitTorrent addrs",
                "29.6%",
                of_ases(c.ases_bt),
            ),
            row(
                "…with blocklisted RIPE-prefix addrs",
                "17.1%",
                of_ases(c.ases_ripe),
            ),
            row(
                "top-10 AS share of blocklisted addrs",
                "27.7%",
                pct(c.top10_share),
            ),
            row(
                "largest AS share (AS4134 in paper)",
                "9%",
                c.top_as
                    .map(|(asn, s)| format!("{asn}: {}", pct(s)))
                    .unwrap_or_default(),
            ),
        ],
    )
    .with_series(
        &["rank", "cdf_blocklisted", "cdf_bt", "cdf_ripe"],
        (0..c.per_as.len())
            .map(|i| {
                vec![
                    (i + 1).to_string(),
                    format!("{:.6}", c.cdf_blocklisted[i]),
                    format!("{:.6}", c.cdf_bt[i]),
                    format!("{:.6}", c.cdf_ripe[i]),
                ]
            })
            .collect(),
    )
}

/// Figure 4: the NAT and dynamic detection funnels.
fn fig4(study: &Study) -> Exhibit {
    let f = funnel(study);
    let paper = |count| scaled(study, count);
    let ratio = |n: usize, d: usize, places: usize| format!("{:.*}%", places, 100.0 * share(n, d));
    Exhibit::new(
        "fig4",
        "Figure 4: detection funnels",
        vec![
            row("BitTorrent IPs", paper(BITTORRENT_IPS), f.bittorrent_ips),
            row("NATed IPs", paper(NATTED_IPS), f.natted_ips),
            row(
                "NATed + blocklisted",
                paper(NATTED_BLOCKLISTED),
                f.natted_blocklisted,
            ),
            row(
                "blocklisted in RIPE prefixes",
                paper(("53.7K", 53_700.0)),
                f.blocklisted_in_ripe,
            ),
            row(
                "… same-AS probes",
                paper(("34.4K", 34_400.0)),
                f.blocklisted_same_as,
            ),
            row(
                "… frequent (≥ knee)",
                paper(("33.1K", 33_100.0)),
                f.blocklisted_frequent,
            ),
            row(
                "… daily changers (final)",
                paper(("22.7K", 22_700.0)),
                f.blocklisted_daily,
            ),
            row(
                "blocklisted addresses total",
                paper(BLOCKLISTED),
                f.blocklisted_total,
            ),
            row(
                "crawl scope /24s",
                paper(CRAWL_SCOPE),
                f.crawl_scope_prefixes,
            ),
            row(
                "RIPE /24 prefixes",
                paper(("90.5K", 90_500.0)),
                f.ripe_prefixes,
            ),
            row("dynamic /24 prefixes (final)", "—", f.dynamic_prefixes),
            row("knee", 8, f.knee),
            row(
                "NATed / BitTorrent IPs",
                "4.1%",
                ratio(f.natted_ips, f.bittorrent_ips, 2),
            ),
            row(
                "NATed + blocklisted / NATed",
                "1.5%",
                ratio(f.natted_blocklisted, f.natted_ips, 2),
            ),
            row(
                "same-AS retention",
                "64%",
                ratio(f.blocklisted_same_as, f.blocklisted_in_ripe, 0),
            ),
            row(
                "frequent retention",
                "96%",
                ratio(f.blocklisted_frequent, f.blocklisted_same_as, 0),
            ),
            row(
                "daily retention",
                "69%",
                ratio(f.blocklisted_daily, f.blocklisted_frequent, 0),
            ),
            row(
                "both funnels narrow monotonically",
                "yes",
                if f.is_monotone() { "yes" } else { "no" },
            ),
        ],
    )
}

/// Rows shared by Figures 5 and 6: the per-list tally against its paper
/// values (lists with none, listings, addresses, mean, top-10 shares).
fn per_list_rows(study: &Study, counts: &PerListCounts, noun: &str, paper: [&str; 6]) -> Vec<Row> {
    let lists = study.blocklists.catalog.len();
    vec![
        row(
            format!("lists with no {noun} address"),
            paper[0],
            format!(
                "{} ({:.0}%)",
                counts.lists_with_none,
                100.0 * share(counts.lists_with_none, lists)
            ),
        ),
        row(format!("{noun} listings"), paper[1], counts.listings),
        row(
            format!("distinct {noun} addresses"),
            paper[2],
            counts.addresses,
        ),
        row(
            format!("mean {noun} addresses per list"),
            paper[3],
            format!("{:.0}", counts.mean_per_list),
        ),
        row(
            "top-10 lists' share of listings",
            paper[4],
            pct(counts.top10_share),
        ),
        row(
            "same lists' share of ALL blocklisted",
            paper[5],
            pct(counts.top10_share_of_all_blocklisted),
        ),
    ]
}

/// (rank, count, list name) per list, in the tally's order.
fn per_list_series(study: &Study, counts: &PerListCounts) -> Vec<Vec<String>> {
    counts
        .counts
        .iter()
        .enumerate()
        .map(|(rank, (list, count))| {
            vec![
                (rank + 1).to_string(),
                count.to_string(),
                study.blocklists.meta(*list).name.clone(),
            ]
        })
        .collect()
}

/// Figure 5: NATed addresses in blocklists.
fn fig5(study: &Study) -> Exhibit {
    let n = natted_per_list(study);
    let paper = [
        "61 (40%)",
        "45.1K",
        NATTED_BLOCKLISTED.0,
        "501",
        "65.9%",
        "53.4%",
    ];
    Exhibit::new(
        "fig5",
        "Figure 5: NATed addresses in blocklists",
        per_list_rows(study, &n, "NATed", paper),
    )
    .with_series(&["rank", "count", "list"], per_list_series(study, &n))
}

/// Figure 6: dynamic addresses in blocklists, RIPE technique against the
/// Cai et al. ICMP-census baseline.
fn fig6(study: &Study) -> Exhibit {
    let d = dynamic_per_list(study);
    let c = census_per_list(study);
    let paper = ["72 (47%)", "30.6K", "22.7K", "387", "72.6%", "70.3%"];
    let mut rows = per_list_rows(study, &d, "dynamic", paper);
    rows.push(row("dynamic listings (Cai et al.)", "29.8K", c.listings));
    rows.push(row("distinct dynamic addrs (Cai et al.)", "—", c.addresses));
    // Ranked by the RIPE counts, with the census count of the same list.
    let census: BTreeMap<_, _> = c.counts.iter().copied().collect();
    let mut series = per_list_series(study, &d);
    for (line, (list, _)) in series.iter_mut().zip(&d.counts) {
        line.push(census.get(list).copied().unwrap_or(0).to_string());
    }
    Exhibit::new(
        "fig6",
        "Figure 6: dynamic addresses in blocklists (RIPE vs Cai et al.)",
        rows,
    )
    .with_series(&["rank", "count", "list", "cai_et_al"], series)
}

/// Figure 7: how long reused addresses stay listed.
fn fig7(study: &Study) -> Exhibit {
    let d = durations(study);
    let s = d.summary();
    let days = |x: f64| format!("{x:.1}");
    Exhibit::new(
        "fig7",
        "Figure 7: days reused addresses stay listed",
        vec![
            row("mean days listed (all)", 9, days(s.mean_days_all)),
            row("mean days listed (NATed)", 10, days(s.mean_days_natted)),
            row("mean days listed (dynamic)", 3, days(s.mean_days_dynamic)),
            row("removed within 2 days (all)", "42%", pct(s.within2_all)),
            row(
                "removed within 2 days (NATed)",
                "60%",
                pct(s.within2_natted),
            ),
            row(
                "removed within 2 days (dynamic)",
                "77.5%",
                pct(s.within2_dynamic),
            ),
            row("maximum days listed", 44, format!("{:.0}", s.max_days)),
        ],
    )
    .with_series(
        &["days", "all", "natted", "dynamic"],
        d.series(44)
            .into_iter()
            .map(|(x, all, nat, dynamic)| {
                vec![
                    x.to_string(),
                    format!("{all:.6}"),
                    format!("{nat:.6}"),
                    format!("{dynamic:.6}"),
                ]
            })
            .collect(),
    )
}

/// Figure 8: users behind blocklisted NATed addresses (lower bounds).
fn fig8(study: &Study) -> Exhibit {
    let i = impact(study);
    let s = i.summary();
    Exhibit::new(
        "fig8",
        "Figure 8: users behind blocklisted NATed addresses",
        vec![
            row(
                "NATed blocklisted IPs",
                scaled(study, NATTED_BLOCKLISTED),
                s.natted_blocklisted,
            ),
            row("IPs with exactly two users", "68.5%", pct(s.exactly_two)),
            row("IPs with fewer than ten users", "97.8%", pct(s.under_ten)),
            row("maximum users behind one IP", 78, s.max_users),
            row(
                "total affected users (lower bound)",
                "—",
                s.total_affected_users,
            ),
        ],
    )
    .with_series(
        &["users", "cdf"],
        i.series()
            .into_iter()
            .map(|(users, cdf)| vec![users.to_string(), format!("{cdf:.6}")])
            .collect(),
    )
}

/// Figure 9: blocklist types used by operators that faced reuse issues.
fn fig9(study: &Study) -> Exhibit {
    let pool = generate_respondents(study.config.seed, &SurveyTargets::default());
    let mut rows = vec![row(
        "affected operators (CGN or dynamic)",
        "26–34 of 34",
        pool.iter().filter(|r| r.faced_reuse_issues()).count(),
    )];
    for bar in figure9(&pool) {
        let paper = FIG9_USAGE
            .iter()
            .find(|(t, _)| *t == bar.list_type)
            .map_or(0.0, |(_, p)| 100.0 * p);
        rows.push(row(
            format!("use {} lists", bar.list_type.name()),
            format!("{paper:.0}%"),
            format!("{:.1}%", bar.pct),
        ));
    }
    Exhibit::new(
        "fig9",
        "Figure 9: blocklist types used by reuse-affected operators",
        rows,
    )
}

/// Table 1: the blocklist-usage survey.
fn table1_survey(study: &Study) -> Exhibit {
    let t = table1(&generate_respondents(
        study.config.seed,
        &SurveyTargets::default(),
    ));
    let whole = |x: f64| format!("{x:.0}%");
    let avg = |x: f64| format!("{x:.1}");
    Exhibit::new(
        "table1",
        "Table 1: blocklist usage survey",
        vec![
            row("respondents", 65, t.respondents),
            row("use external blocklists", "85%", whole(t.external_pct)),
            row("maintain internal blocklists", "70%", whole(t.internal_pct)),
            row("paid-for lists (avg)", 2, avg(t.paid_avg)),
            row("paid-for lists (max)", 39, t.paid_max),
            row("public lists (avg)", 10, avg(t.public_avg)),
            row("public lists (max)", 68, t.public_max),
            row("directly block on lists", "59%", whole(t.direct_block_pct)),
            row("feed threat intelligence", "35%", whole(t.threat_intel_pct)),
            row("answered reuse questions", 34, t.reuse_answerers),
            row(
                "see dynamic addressing issues",
                "76%",
                whole(t.dynamic_issue_pct),
            ),
            row(
                "see carrier-grade NAT issues",
                "56%",
                whole(t.cgn_issue_pct),
            ),
        ],
    )
}

/// Table 2: the 151-blocklist dataset by maintainer.
fn table2(study: &Study) -> Exhibit {
    let catalog = &study.blocklists.catalog;
    let mut rows = vec![
        row("blocklists monitored", 151, catalog.len()),
        // The paper's table prints 41 maintainer rows; DShield and
        // Spamhaus are added from the §4 text to reach its 151 total.
        row("maintainers", "41 (+2)", ar_blocklists::MAINTAINERS.len()),
        row(
            "survey-used lists (*)",
            27,
            catalog.iter().filter(|l| l.survey_used).count(),
        ),
    ];
    let mut maintainers: Vec<(&str, u16, usize, bool)> = ar_blocklists::MAINTAINERS
        .iter()
        .map(|&(name, paper, starred)| {
            let n = catalog.iter().filter(|l| l.maintainer == name).count();
            (name, paper, n, starred)
        })
        .collect();
    maintainers.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
    for (name, paper, n, starred) in maintainers {
        let star = if starred { " (*)" } else { "" };
        rows.push(row(format!("lists by {name}{star}"), paper, n));
    }
    Exhibit::new("table2", "Table 2: blocklist dataset", rows)
}

/// §4: the crawl and collection campaign itself.
fn section4(study: &Study) -> Exhibit {
    let stats = study.crawl_totals();
    let f = funnel(study);
    let paper = |count| scaled(study, count);
    let lists = &study.blocklists.catalog;
    let mean_list_size = lists
        .iter()
        .map(|m| study.blocklists.ips_of_list(m.id).len() as f64)
        .sum::<f64>()
        / lists.len() as f64;
    let collection_days: u64 = study.config.periods.iter().map(|p| p.days()).sum();
    Exhibit::new(
        "section4",
        "Section 4: campaign statistics",
        vec![
            row("collection days", 83, collection_days),
            row("blocklists", 151, lists.len()),
            row("blocklisted IPs", paper(BLOCKLISTED), f.blocklisted_total),
            row(
                "mean IPs per list",
                paper(("30K", 30_000.0)),
                format!("{mean_list_size:.0}"),
            ),
            row(
                "crawl scope (/24s)",
                paper(CRAWL_SCOPE),
                f.crawl_scope_prefixes,
            ),
            row(
                "bt_pings sent",
                paper(("1.6B", 1_600_000_000.0)),
                stats.pings_sent,
            ),
            row("get_nodes sent", "—", stats.get_nodes_sent),
            row("response rate", "48.6%", pct(stats.response_rate())),
            row(
                "unique BitTorrent IPs",
                paper(BITTORRENT_IPS),
                f.bittorrent_ips,
            ),
            row(
                "node_ids (summed over both periods)",
                paper(("203M", 203_000_000.0)),
                stats.unique_node_ids,
            ),
            row(
                "node_ids per IP (summed over both periods)",
                4.2,
                format!(
                    "{:.1}",
                    stats.unique_node_ids as f64 / stats.unique_ips.max(1) as f64
                ),
            ),
            row("NATed IPs", paper(NATTED_IPS), f.natted_ips),
            row(
                "NATed + blocklisted",
                paper(NATTED_BLOCKLISTED),
                f.natted_blocklisted,
            ),
        ],
    )
}

/// §6: the operator-facing deliverables. The published reused-address
/// list, greylist splits of the five riskiest feeds, the maintainer
/// scorecard, and the pre-assignment check of the most tainted pool.
fn section6(study: &Study) -> Exhibit {
    let reused = reused_address_list(study);
    let natted = reused
        .iter()
        .filter(|e| matches!(e.evidence, ReuseEvidence::Natted { .. }))
        .count();
    let mut rows = vec![
        row("published reused addresses", "—", reused.len()),
        row("… with NAT evidence", "—", natted),
        row("… with dynamic-prefix evidence", "—", reused.len() - natted),
    ];

    let scores = scorecard(study);
    let policy = GreylistPolicy::default();
    for score in scores.iter().filter(|s| s.size > 0).take(5) {
        let meta = study.blocklists.meta(score.list);
        let split = split_feed(
            &policy,
            meta,
            study.blocklists.ips_of_list(score.list),
            &reused,
        );
        rows.push(row(
            format!("greylist split of {}", meta.name),
            "—",
            format!(
                "{} block, {} greylist ({})",
                split.block.len(),
                split.greylist.len(),
                pct(split.greylist_share())
            ),
        ));
    }
    for score in scores.iter().filter(|s| s.size > 0).take(10) {
        rows.push(row(
            format!("scorecard of {}", score.name),
            "—",
            format!(
                "size {}, reused {}, corroborated {}, {:.1} mean days, risk {:.2}",
                score.size,
                pct(score.reused_share),
                pct(score.corroborated_share),
                score.mean_residency_days,
                score.risk()
            ),
        ));
    }

    // Would the most tainted dynamic pool's addresses be safe to hand to
    // new customers? Assessed on the pool's worst collection day.
    let blocklisted = study.blocklists.all_ips();
    let most_tainted = study.universe.pools.iter().max_by_key(|p| {
        blocklisted
            .iter()
            .filter(|ip| p.range.contains(*ip))
            .count()
    });
    let worst = most_tainted.and_then(|pool| {
        study
            .config
            .periods
            .iter()
            .flat_map(|p| p.days_iter())
            .map(|day| {
                let assessments = assess_pool(&study.blocklists, pool.range.iter(), day);
                let tainted = assessments.iter().filter(|a| !a.is_clean()).count();
                (tainted, day, assessments)
            })
            .max_by_key(|(tainted, ..)| *tainted)
            .map(|worst| (pool, worst))
    });
    if let Some((pool, (tainted, day, assessments))) = worst {
        rows.push(row(
            format!("pre-assignment check of pool {} on {day}", pool.range),
            "—",
            format!("{tainted} of {} addresses tainted", assessments.len()),
        ));
        for a in assessments.iter().filter(|a| !a.is_clean()).take(5) {
            let until = a.tainted_until.map(|t| t.to_string()).unwrap_or_default();
            rows.push(row(
                format!("… {}", a.ip),
                "—",
                format!(
                    "listed by {} feed(s), tainted until {until}",
                    a.active_listings.len()
                ),
            ));
        }
    }
    Exhibit::new("section6", "Section 6: operator artifacts", rows)
}

/// Daily blocklist churn (beyond the paper): the feed dynamics behind
/// Figure 7.
fn churn_series(study: &Study) -> Exhibit {
    let series = churn(study);
    Exhibit::new(
        "churn",
        "Daily blocklist churn (beyond the paper)",
        vec![
            row(
                "mean daily turnover",
                "—",
                format!("{:.3}/day", series.mean_turnover()),
            ),
            row(
                "reused share of additions",
                "—",
                pct(series.reused_addition_share()),
            ),
        ],
    )
    .with_series(
        &["day", "added", "removed", "active", "added_reused"],
        series
            .days
            .iter()
            .map(|d| {
                vec![
                    d.day.to_string(),
                    d.added.to_string(),
                    d.removed.to_string(),
                    d.active.to_string(),
                    d.added_reused.to_string(),
                ]
            })
            .collect(),
    )
}

/// Ablation: what if the crawler skipped the bt_ping verification round?
/// Precision of the discovery-only rule (≥ 2 ports with ≥ 2 node_ids ever
/// seen) against the verified rule, both against ground truth.
fn ablation_pingverify(study: &Study) -> Exhibit {
    let verified = study.natted_ips();
    let discovery: IpSet = study
        .crawls
        .iter()
        .flat_map(|c| c.discovery_only_nat_candidates())
        .collect();
    let truly_natted = |set: &IpSet| {
        set.iter()
            .filter(|ip| study.universe.is_truly_natted(*ip))
            .count()
    };
    let (v_n, v_tp) = (verified.len(), truly_natted(&verified));
    let (d_n, d_tp) = (discovery.len(), truly_natted(&discovery));
    let extra = discovery.difference(&verified);
    let extra_single = extra.len() - truly_natted(&extra);
    Exhibit::new(
        "ablation_pingverify",
        "Ablation: the bt_ping verification round",
        vec![
            row("verified: flagged IPs", "—", v_n),
            row("verified: true NATs", "—", v_tp),
            row("verified: precision", "≈100%", pct(share(v_tp, v_n))),
            row("discovery-only: flagged IPs", "—", d_n),
            row("discovery-only: true NATs", "—", d_tp),
            row("discovery-only: precision", "<100%", pct(share(d_tp, d_n))),
            row(
                "false positives avoided by verifying",
                "—",
                (d_n - d_tp).saturating_sub(v_n - v_tp),
            ),
            row(
                "IPs only the discovery-only rule flags",
                "—",
                d_n.saturating_sub(v_n),
            ),
            row(
                "… of those, single hosts whose port churned",
                "—",
                pct(share(extra_single, extra.len())),
            ),
        ],
    )
}

/// Ablation: the frequent-changer threshold and the daily-change filter
/// (§3.2). Precision counts detected prefixes inside any ground-truth
/// pool; fast-purity those inside ≤1-day pools, the population §3.2
/// targets.
fn ablation_knee(study: &Study) -> Exhibit {
    let truth_fast = study.universe.true_dynamic_prefixes(true);
    let truth_any = study.universe.true_dynamic_prefixes(false);
    let base = PipelineConfig::default();
    let mut variants = vec![("kneedle + daily (paper)".to_string(), base.clone())];
    for knee in [2u32, 8, 64, 256, 1024] {
        variants.push((
            format!("fixed knee {knee} + daily"),
            PipelineConfig {
                knee_override: Some(knee),
                ..base.clone()
            },
        ));
    }
    variants.push((
        "kneedle, no daily filter".to_string(),
        PipelineConfig {
            max_mean_interchange: None,
            ..base.clone()
        },
    ));
    variants.push((
        "fixed knee 2, no daily".to_string(),
        PipelineConfig {
            knee_override: Some(2),
            max_mean_interchange: None,
            ..base
        },
    ));
    let rows = variants
        .into_iter()
        .map(|(label, config)| {
            let d = detect_dynamic(&study.atlas_log, &config, |ip| study.universe.asn_of(ip));
            let detected = &d.dynamic_prefixes;
            let within = |n: usize| pct(share(n, detected.len()));
            row(
                label,
                "—",
                format!(
                    "knee {}, {} prefixes, precision {}, fast-purity {}, {} probes",
                    d.knee,
                    detected.len(),
                    within(detected.iter().filter(|p| truth_any.contains(p)).count()),
                    within(detected.iter().filter(|p| truth_fast.contains(p)).count()),
                    d.daily.probes.len()
                ),
            )
        })
        .collect();
    Exhibit::new(
        "ablation_knee",
        "Ablation: knee threshold and daily-change filter",
        rows,
    )
}

/// Ablation: /24 expansion against per-address marking (§3.2). The
/// simulator's pools span half, one or two /24s, so both over- and
/// under-counting are measurable.
fn ablation_prefix(study: &Study) -> Exhibit {
    let exact = detect_dynamic(
        &study.atlas_log,
        &PipelineConfig {
            expand_to_prefix: false,
            ..PipelineConfig::default()
        },
        |ip| study.universe.asn_of(ip),
    );
    // Every address of the pools a detected address falls in.
    let pool_addrs: IpSet = study
        .universe
        .pools
        .iter()
        .filter(|pool| {
            exact
                .dynamic_addresses
                .iter()
                .any(|ip| pool.range.contains(*ip))
        })
        .flat_map(|pool| pool.range.iter())
        .collect();
    let expanded: IpSet = study
        .atlas
        .dynamic_prefixes
        .iter()
        .flat_map(|p| p.addrs())
        .collect();
    let over = expanded.difference(&pool_addrs).len();
    let missed = pool_addrs.difference(&expanded).len();
    let observed = exact.dynamic_addresses.len();
    Exhibit::new(
        "ablation_prefix",
        "Ablation: /24 expansion vs per-address marking",
        vec![
            row("observed dynamic addresses", "—", observed),
            row("expanded (/24) address cover", "—", expanded.len()),
            row("true pool addresses (those pools)", "—", pool_addrs.len()),
            row(
                "over-marked (outside any pool)",
                "over-counting risk",
                format!("{over} ({})", pct(share(over, expanded.len()))),
            ),
            row(
                "pool addresses still missed",
                "under-counting risk",
                format!("{missed} ({})", pct(share(missed, pool_addrs.len()))),
            ),
            row(
                "expansion gain over per-address",
                "—",
                format!("{:.1}x", share(expanded.len(), observed)),
            ),
        ],
    )
}

/// Ablation: crawler vantage points (§3.1 future work). The first hour of
/// a week's crawl at 1 msg/s per vantage, while coverage is still bound
/// by the probe rate: over a full week even one vantage drains the
/// frontier and the counts converge.
fn ablation_vantage(study: &Study) -> Exhibit {
    let week = TimeWindow::new(date(2019, 8, 3), date(2019, 8, 10));
    let window = TimeWindow::new(week.start, week.start + SimDuration::from_hours(1));
    let alloc = AllocationPlan::build(&study.universe, week, InterestSet::Observable);
    let rows = [1u32, 2, 4, 8]
        .into_iter()
        .map(|vantages| {
            let mut net = SimNetwork::new(&study.universe, &alloc, SimParams::default());
            let mut config = CrawlConfig::new(window);
            config.rate_per_sec = 1;
            config.vantage_points = vantages;
            let s = crawl(&mut net, &config).stats;
            row(
                format!("{vantages} vantage point(s)"),
                "—",
                format!(
                    "{} get_nodes, {} unique IPs, {} multiport, {} NATed",
                    s.get_nodes_sent, s.unique_ips, s.multiport_ips, s.natted_ips
                ),
            )
        })
        .collect();
    Exhibit::new("ablation_vantage", "Ablation: crawler vantage points", rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyConfig;
    use ar_simnet::fnv::fnv1a64;
    use ar_simnet::rng::Seed;

    fn measured<'a>(exhibits: &'a [Exhibit], id: &str, metric: &str) -> &'a str {
        let e = exhibits.iter().find(|e| e.id == id).expect("exhibit");
        let r = e.rows.iter().find(|r| r.metric == metric).expect("row");
        &r.measured
    }

    #[test]
    fn registry_renders_identically_at_any_thread_count() {
        let render = |threads: usize| {
            let mut config = StudyConfig::quick_test(Seed(2020));
            config.threads = Some(threads);
            let study = Study::run(config);
            let exhibits = exhibits(&study);
            let mut text = render_markdown(&study, &exhibits);
            for e in &exhibits {
                if let Some(series) = &e.series {
                    text += e.id;
                    text += &render_tsv(series);
                }
            }
            (exhibits, text)
        };
        let (exhibits, text) = render(1);
        assert_eq!(text, render(3).1, "exhibits moved with the thread count");

        let mut ids: Vec<&str> = exhibits.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), REGISTRY.len(), "duplicate exhibit ids");
        for e in &exhibits {
            assert!(!e.rows.is_empty(), "{} has no rows", e.id);
        }
        for line in text.lines().filter(|l| l.starts_with("| ")) {
            assert_eq!(line.matches('|').count(), 4, "bad row: {line}");
        }
        // §4 counts each BitTorrent IP once, like Figure 4.
        assert_eq!(
            measured(&exhibits, "section4", "unique BitTorrent IPs"),
            measured(&exhibits, "fig4", "BitTorrent IPs")
        );
        // Every row and series of the quick study feeds this digest.
        assert_eq!(
            fnv1a64(text.as_bytes()),
            0x57f2_1df4_f9de_9fcd,
            "exhibit digest moved"
        );
    }
}
