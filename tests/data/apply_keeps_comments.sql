CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(20), note TEXT);
-- keep me
SELECT * /* all cols */ FROM t
  WHERE id = 1 AND name LIKE '%abc';
INSERT INTO t VALUES (1, 'x', -- the note
 'n');
