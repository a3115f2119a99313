"""Experiment harness: simulated Grid'5000 deployments and drivers that
regenerate every figure of the paper's evaluation section."""

from .deploy import deploy_bsfs, deploy_hdfs
from .microbench import (
    DataPoint,
    appends_under_reads,
    concurrent_appends,
    reads_under_appends,
)
from .datajoin_exp import (
    DataJoinCalibration,
    DataJoinPoint,
    run_datajoin_point,
)
from .report import FigureResult, Series
from .figures import ALL_FIGURES, fig3, fig4, fig5, fig6, filecount_table

__all__ = [
    "deploy_bsfs",
    "deploy_hdfs",
    "DataPoint",
    "appends_under_reads",
    "concurrent_appends",
    "reads_under_appends",
    "DataJoinCalibration",
    "DataJoinPoint",
    "run_datajoin_point",
    "FigureResult",
    "Series",
    "ALL_FIGURES",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "filecount_table",
]
