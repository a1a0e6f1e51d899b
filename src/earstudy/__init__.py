"""earstudy: eye-aspect-ratio attention measures from facial-landmark
streams, with event-study regressions of intraday returns and realized
volatility on their log-differences."""

__version__ = "0.1.0"

from .attention import (
    AttentionConfig,
    EarSeries,
    SpeakerSegments,
    benchmark_variables,
    delta_series,
    integrate_attention,
    log_attention_level,
)
from .errors import (
    ConfigError,
    CoverageError,
    DataError,
    DegenerateRegressorError,
    DomainError,
    InsufficientDataError,
    MalformedRecordError,
    ScenarioError,
)
from .geometry import (
    LandmarkBatch,
    batch_ear,
    read_landmark_batch,
    write_landmark_stream,
)
from .identity import (
    Gallery,
    GalleryEntry,
    IdentityConfig,
    classify_batch,
    classify_codes,
    route_frames,
    vote_counts,
)
from .market import (
    ConferenceTimeline,
    EventWindowStats,
    PriceSeries,
    event_window_stats,
    price_at,
    realized_vol,
    window_log_return,
)
from .regression import (
    RegressionInput,
    ols_univariate,
    render_table,
    significance_stars,
    two_sided_p_value,
)

__all__ = [name for name in dir() if not name.startswith("_")]
