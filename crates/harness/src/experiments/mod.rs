//! One module per regenerated table/figure (DESIGN.md §5).

pub mod ablations;
pub mod breakdown;
pub mod calib;
pub mod ecc;
pub mod fig2;
pub mod figs;
pub mod overhead;
pub mod table1;
pub mod table2;
pub mod table3;
