-- Clauses and schema qualifiers the parser tolerates without keeping them
-- in the tree. Each statement carries a rewritable anti-pattern (Implicit
-- Columns or Column Wildcard Usage). A rewrite edits only the spans it
-- changes, so `sqlcheck --apply` rewrites the six statements on t and each
-- keeps its clause (tests/data/unmodeled_clauses.applied.sql). The catalog
-- does not define archive.t, so its two statements stay as written.
CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(20));
INSERT INTO t VALUES (1, 'x') ON DUPLICATE KEY UPDATE name = 'x';
INSERT INTO t VALUES (2, 'y') ON CONFLICT DO NOTHING;
INSERT INTO t VALUES (3, 'z') RETURNING id;
INSERT IGNORE INTO t VALUES (4, 'w');
INSERT OR IGNORE INTO t VALUES (5, 'v');
SELECT * FROM t WHERE name LIKE '%a!%' ESCAPE '!';
SELECT * FROM archive.t WHERE id = 1;
INSERT INTO archive.t VALUES (1, 'x');
